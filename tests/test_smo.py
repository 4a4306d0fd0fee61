"""welldesc.smo.solve against its plain form, oracle.solve_pairwise, bit for bit.

The two share no array: each draw builds its column source afresh for each
solver, so a kernel cache (the SVM's) starts empty for both.
"""

import numpy as np
import pytest

from welldesc import baselines, smo
from welldesc.errors import InvalidConfig, NonConvergence
from welldesc.kernels import KernelSpec, gram

from oracle import solve_pairwise

_SPECS = (KernelSpec(width=1.5), KernelSpec("erbf", width=2.0),
          KernelSpec("polynomial", degree=3, offset=1.0))


class _Counted(smo.Dense):
    """Dense columns that count the refreshes of v: dot is called at the
    start and every 1024 passes."""

    def __init__(self, K):
        super().__init__(K)
        self.dots = 0

    def dot(self, z):
        self.dots += 1
        return super().dot(z)


def _svdd_dual(X, spec, C, max_passes=None):
    """train's dual: 1/2 a'(2G)a - diag(G)'a from a = 1/n, every y_i = 1."""
    G = gram(spec, X)
    n = len(X)
    return (lambda: _Counted(2.0 * G), np.ones(n), -G.diagonal().copy(), C,
            np.full(n, 1.0 / n), max_passes)


def _svm_dual(X, labels, spec, C, max_passes=None):
    """train_csvm's dual from a = 0, columns from its kernel cache."""
    n = len(X)
    return (lambda: baselines._KernelColumns(spec, X), labels, -np.ones(n), C,
            np.zeros(n), max_passes)


def _duals():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 5, 8, 13, 21, 40, 80, 150):
        X = rng.normal(size=(n, int(rng.integers(1, 6))))
        if n >= 4:  # duplicate rows give zero-curvature pairs
            X[rng.integers(0, n, n // 4)] = X[rng.integers(0, n, n // 4)]
        spec = _SPECS[n % 3]
        if spec.family == "polynomial":
            X /= 3.0
        for C in (1.0 / n, float(rng.uniform(1.0 / n, 1.0)), 1.0):
            yield f"svdd-n{n}-C{C:.3g}", _svdd_dual(X, spec, C)
    for k in range(18):
        n, d = int(rng.integers(2, 200)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        labels = np.where(rng.uniform(size=n) < 0.3, 1.0, -1.0)
        labels[:2] = [1.0, -1.0]
        X[labels > 0] += float(rng.uniform(0.0, 2.0))
        if k % 6 == 5:  # points on a line under a wide kernel: near-singular
            X = np.outer(rng.uniform(size=n), rng.normal(size=d))
            spec = KernelSpec(width=3.6)
        else:
            spec = _SPECS[k % 3]
            if spec.family == "polynomial":
                X /= 3.0
        yield f"svm-n{n}-{spec.family}", _svm_dual(X, labels, spec, float(rng.uniform(0.5, 5.0)))
    # past the refresh of v at pass 1024: about 1900 passes
    yield "svdd-n1200", _svdd_dual(rng.normal(size=(1200, 3)), _SPECS[0], 0.01)
    X = rng.normal(size=(400, 3))
    labels = np.where(rng.uniform(size=400) < 0.5, 1.0, -1.0)
    yield "svm-n400-overlapping", _svm_dual(X, labels, KernelSpec(width=2.0), 1.0)
    # the pass cap, in the middle of a solve
    yield "svdd-cap", _svdd_dual(rng.normal(size=(30, 2)), _SPECS[0], 0.2, max_passes=7)
    yield "svm-cap", _svm_dual(rng.normal(size=(40, 2)), np.resize([1.0, -1.0], 40),
                               _SPECS[1], 2.0, max_passes=11)


_DUALS = dict(_duals())


def _run(solver, make_cols, y, p, C, a, max_passes):
    cols = make_cols()
    try:
        out = solver(cols, y, p, C, a.copy(), max_passes)
    except NonConvergence as err:
        return err, cols
    return tuple(x.tobytes() for x in out), cols


@pytest.mark.parametrize("name", list(_DUALS))
def test_solve_returns_the_plain_loops_bytes(name):
    got, _ = _run(smo.solve, *_DUALS[name])
    want, _ = _run(solve_pairwise, *_DUALS[name])
    if isinstance(want, NonConvergence):
        assert isinstance(got, NonConvergence)
        assert got.kkt_violation == want.kkt_violation and str(got) == str(want)
    else:
        assert got == want


def test_the_draws_reach_every_branch():
    """The set holds a draw past the refresh, the cap, a step that lands on
    a lower bound from inside the box, and one that lands on C."""
    assert len(_DUALS) >= 50
    refreshed = capped = on_zero = on_cap = 0
    for make_cols, y, p, C, a, max_passes in _DUALS.values():
        out, cols = _run(smo.solve, make_cols, y, p, C, a, max_passes)
        if isinstance(out, NonConvergence):
            capped += 1
            continue
        refreshed += getattr(cols, "dots", 0) > 1
        alphas = np.frombuffer(out[0])
        on_zero += bool(((alphas == 0.0) & (a > 0.0)).any())
        on_cap += bool(((alphas == C) & (a < C)).any())
    assert refreshed >= 1 and capped == 2 and on_zero >= 1 and on_cap >= 1


@pytest.mark.parametrize("max_passes", [0, -3])
def test_pass_cap_below_one_is_refused(max_passes):
    """A cap that allows no pass is a bad setting, not a solve that gave up."""
    make_cols, y, p, C, a, _ = _DUALS["svdd-cap"]
    with pytest.raises(InvalidConfig, match=f"^max_passes must be at least 1, got {max_passes}$"):
        smo.solve(make_cols(), y, p, C, a.copy(), max_passes)


def _huge_dual(K, y, p, C, a, max_passes=None):
    """A dual over K held whole: a diagonal near 1e308 makes the pick's
    curvatures overflow to inf, or an inf - inf a NaN."""
    return (lambda: smo.Dense(K.copy()), y, p, C, a, max_passes)


def _fallback_duals():
    n = 12
    X = np.random.default_rng(23).normal(size=(n, 2))
    labels = np.resize([1.0, -1.0], n)
    # index 0's curvature with itself, 2e308 - 2e308, is NaN whenever the pick
    # takes i = 0; its curvature with the others stays finite
    K = gram(_SPECS[0], X)
    K[0, 0] = 1e308
    yield "one-huge-row", _huge_dual(K, labels, -np.ones(n), 1.0, np.zeros(n))
    # i = 0 (0.85e308 on the diagonal): every other curvature is inf, so
    # every candidate's gain falls to gap^2 / inf = 0
    K = np.diag([0.85e308, 1e308, 0.99e308, 1e308])
    yield "gains-fall-to-zero", _huge_dual(K, np.ones(4), np.zeros(4), 1.0, np.full(4, 1e-300))
    # every curvature overflows to inf, and to NaN (inf - inf) at i itself;
    # outside low the gain reads -inf / inf = NaN
    y6 = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    K = np.diag(np.full(6, 0.95e308)) + np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    yield "inf-curvature", _huge_dual(K, y6, -np.ones(6), 1.0, np.zeros(6))
    # off-diagonal entries near 1e308 too: every curvature is NaN, and the
    # solve runs into its pass cap
    K = np.full((5, 5), 0.95e308)
    np.fill_diagonal(K, 1e308)
    yield "nan-curvature", _huge_dual(K, np.ones(5), -np.arange(5) * 1e306, 1.0,
                                      np.full(5, 0.2), max_passes=40)


_FALLBACK_DUALS = dict(_fallback_duals())


@pytest.mark.parametrize("name", list(_FALLBACK_DUALS))
def test_pick_falls_back_where_no_gain_is_positive(name, monkeypatch):
    """Where the masked-gap gain peaks at 0 or NaN, the pick falls back to
    the gain over low alone, and the solve still returns the plain loop's
    bytes. The overflows are the point here, so numpy's warnings about them
    are silenced."""
    calls = []

    def counted(*args):
        calls.append(None)
        return pick(*args)

    pick = smo._pick_in_low
    monkeypatch.setattr(smo, "_pick_in_low", counted)
    with np.errstate(over="ignore", invalid="ignore"):
        got, _ = _run(smo.solve, *_FALLBACK_DUALS[name])
        want, _ = _run(solve_pairwise, *_FALLBACK_DUALS[name])
    assert calls
    if isinstance(want, NonConvergence):
        assert isinstance(got, NonConvergence)
        assert got.kkt_violation == want.kkt_violation and str(got) == str(want)
    else:
        assert got == want


def _count_curvatures(monkeypatch, make_cols, y, p, C, a, max_passes):
    """Solve once; return the working indices the passes asked curv for,
    in order, and the indices smo.curvature computed rows for."""
    asked, computed = [], []

    def counted(diag, i, *rest):
        computed.append(i)
        return curvature(diag, i, *rest)

    curvature = smo.curvature
    monkeypatch.setattr(smo, "curvature", counted)
    cols = make_cols()
    curv = cols.curv
    cols.curv = lambda i: asked.append(i) or curv(i)
    smo.solve(cols, y, p, C, a.copy(), max_passes)
    return asked, computed


@pytest.mark.parametrize("name", ["svdd-n150-C1", "svdd-n1200"])
def test_dense_computes_each_working_index_curvature_once(name, monkeypatch):
    """The hypersphere's solve asks for the curvature row of its working
    index on every pass; Dense computes each index's row once and keeps it,
    and the solve still returns the plain loop's bytes (above)."""
    asked, computed = _count_curvatures(monkeypatch, *_DUALS[name])
    assert sorted(computed) == sorted(set(asked))
    assert len(asked) > 2 * len(computed)


def test_kernel_cache_computes_curvature_every_pass(monkeypatch):
    """The SVM's column source keeps no curvature rows: one per pass."""
    asked, computed = _count_curvatures(monkeypatch, *_DUALS["svm-n400-overlapping"])
    assert computed == asked and len(asked) > len(set(asked))
