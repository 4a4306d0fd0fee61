"""welldesc.smo.solve against its plain form, oracle.solve_pairwise, bit for bit.

The two share no array: each draw builds its column source afresh for each
solver, so a kernel cache (the SVM's) starts empty for both.
"""

import numpy as np
import pytest

from welldesc import baselines, smo
from welldesc.errors import NonConvergence
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
