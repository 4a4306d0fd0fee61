"""Batched scoring against a per-row reference.

The package scores a query block in one pass over the nonzero-weight
vectors. The reference below is the per-row formula, written out here: each
query's kernel row against every stored vector, reduced with a dot product.
Kernel values are bit-identical between the two; only the order of the
weighted sum differs, so scores agree to 1e-12 relative and labels exactly.

The label paths (predict, predict_csvm) screen with one product per block
and re-score exactly only the rows near their threshold; the tests at the
end hold their labels to the exact loop's, at planted threshold rows and
under screen noise of up to half the screen's bound.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from welldesc import (
    HIGH,
    INSIDE,
    LOW,
    KernelSpec,
    NormStats,
    SvddModel,
    SvmModel,
    decide,
    eval_kernel,
    gram,
    kernel_row,
    normalize_fit,
    predict,
    predict_csvm,
    predict_gnb,
    predict_lda,
    radius2_of,
    svm_decision,
    train,
    train_csvm,
    train_gnb,
    train_lda,
)
from welldesc import baselines, kernels, svdd
from welldesc.baselines import _margins
from welldesc.errors import DimensionMismatch
from welldesc.svdd import _radius2

SPECS = (KernelSpec(width=1.7),
         KernelSpec(family="erbf", width=0.9),
         KernelSpec(family="polynomial", degree=3, offset=1.0))
REL = 1e-12


def reference_radius2(m, X):
    out = []
    for x in X:
        xn = (x - m.norm_stats.mean) / m.norm_stats.std
        k = kernel_row(m.kernel, xn, m.X_train)
        out.append(eval_kernel(m.kernel, xn, xn) - 2.0 * float(np.dot(m.alphas, k))
                   + m.self_term)
    return np.array(out)


def reference_margin(m, X):
    out = []
    for x in X:
        xn = (x - m.norm_stats.mean) / m.norm_stats.std
        if m.betas.size == 0:
            out.append(m.bias)
        else:
            k = kernel_row(m.kernel, xn, m.X_sv)
            out.append(float(np.dot(m.betas * m.labels, k) + m.bias))
    return np.array(out)


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= REL * np.maximum(1.0, np.abs(ref)))


def sample(seed, n=30, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(1.0, 2.0, size=(n, d))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=n) > 1.0, LOW, HIGH)
    queries = rng.normal(1.0, 3.0, size=(400, d))
    return X, y, queries, normalize_fit(X, np.arange(n))


@pytest.fixture(params=SPECS, ids=lambda s: s.family)
def spec(request):
    return request.param


@pytest.mark.parametrize("C", [0.1, 0.5, 1.0])
def test_svdd_batch_matches_per_row(spec, C):
    X, _, queries, stats = sample(21)
    m = train(X, spec, C, norm_stats=stats)
    assert np.count_nonzero(m.alphas) >= 1
    ref = reference_radius2(m, queries)
    got = _radius2(m, queries)
    assert_close(got, ref)
    # a wrapper call is a one-row block, and rows never mix
    assert all(radius2_of(m, q) == got[i] for i, q in enumerate(queries))

    tau = m.boundary_tol * max(1.0, m.r2)
    labels = predict(m, queries)
    assert np.array_equal(labels, np.where(ref < m.r2 - tau, LOW, HIGH))
    assert np.array_equal(labels == LOW, [decide(m, q) == INSIDE for q in queries])


def test_svdd_zero_weights_are_skipped():
    # at C = 1 most multipliers are exactly 0 and never reach the accumulator
    X, _, queries, stats = sample(22)
    m = train(X, SPECS[0], 1.0, norm_stats=stats)
    assert np.count_nonzero(m.alphas == 0.0) > 0
    assert_close(_radius2(m, queries), reference_radius2(m, queries))


def test_svm_batch_matches_per_row(spec):
    X, y, queries, stats = sample(23)
    m = train_csvm(X, y, spec, 1.0, norm_stats=stats)
    assert m.betas.size >= 1
    ref = reference_margin(m, queries)
    got = _margins(m, queries)
    assert_close(got, ref)
    assert all(svm_decision(m, q) == got[i] for i, q in enumerate(queries))
    assert np.array_equal(predict_csvm(m, queries), np.where(ref > 0.0, LOW, HIGH))


@pytest.mark.parametrize("bias,label", [(0.3, LOW), (-0.3, HIGH), (0.0, HIGH)])
def test_svm_without_support_vectors_uses_bias_sign(bias, label):
    d = 3
    m = SvmModel(kernel=SPECS[0], C_svm=1.0, betas=np.empty(0), labels=np.empty(0),
                 X_sv=np.empty((0, d)), bias=bias, norm_stats=NormStats.identity(d))
    queries = np.random.default_rng(24).normal(size=(5, d))
    assert np.array_equal(_margins(m, queries), reference_margin(m, queries))
    assert svm_decision(m, queries[0]) == bias
    assert np.array_equal(predict_csvm(m, queries), np.full(5, label))


def models(seed=25):
    X, y, _, stats = sample(seed)
    svdd = train(X, SPECS[0], 0.5, norm_stats=stats)
    svm = train_csvm(X, y, SPECS[0], 1.0, norm_stats=stats)
    empty_svm = SvmModel(kernel=SPECS[0], C_svm=1.0, betas=np.empty(0),
                         labels=np.empty(0), X_sv=np.empty((0, 3)), bias=0.1,
                         norm_stats=stats)
    return [(svdd, predict, radius2_of), (svm, predict_csvm, svm_decision),
            (empty_svm, predict_csvm, svm_decision),
            (train_gnb(X, y, stats), predict_gnb, None),
            (train_lda(X, y, stats), predict_lda, None)]


@pytest.mark.parametrize("case", range(3), ids=["svdd", "svm", "svm-no-sv"])
def test_zero_row_query(case):
    m, predict_fn, _ = models()[case]
    out = predict_fn(m, np.empty((0, 3)))
    assert out.shape == (0,)
    assert np.issubdtype(out.dtype, np.integer)


@pytest.mark.parametrize("case", range(5), ids=["svdd", "svm", "svm-no-sv", "gnb", "lda"])
def test_query_shape_rejected(case):
    m, predict_fn, score_fn = models()[case]
    Q = np.ones((4, 3))
    with pytest.raises(DimensionMismatch):
        predict_fn(m, Q[0])                 # 1-D block
    with pytest.raises(DimensionMismatch):
        predict_fn(m, Q[:, :2])             # wrong width
    if score_fn is None:                    # gnb and lda score only blocks
        return
    with pytest.raises(DimensionMismatch):
        score_fn(m, Q)                      # 2-D single point
    with pytest.raises(DimensionMismatch):
        score_fn(m, Q[0, :2])               # wrong width


# -- screened labels against the exact loop -----------------------------------

def exact_svdd_labels(m, X):
    return np.where(_radius2(m, X) < m.r2 - m.boundary_tol * max(1.0, m.r2), LOW, HIGH)


def exact_svm_labels(m, X):
    return np.where(_margins(m, X) > 0.0, LOW, HIGH)


def planted_svdd(spec, C):
    """A hypersphere with identity scaling, its r2 moved by whole ulps until
    the band's lower limit r2 - tau is exactly the exact R^2 of its first
    on-sphere training row. Queries: that row (exactly at the threshold,
    so HIGH), every other training row, on the sphere or not, and random
    rows."""
    X, _, queries, _ = sample(31)
    m = train(X, spec, C, norm_stats=NormStats.identity(3))
    on_sphere = X[(m.alphas > m.kkt_tol) & (m.alphas < m.C - m.kkt_tol)]
    assert len(on_sphere) >= 1
    target = r2 = float(_radius2(m, on_sphere[:1])[0])
    for _ in range(3):  # r2 - tau(r2) = target, to within a few ulps
        r2 = target + m.boundary_tol * max(1.0, r2)
    for _ in range(64):
        lo = r2 - m.boundary_tol * max(1.0, r2)
        if lo == target:
            break
        r2 = np.nextafter(r2, np.inf if lo < target else -np.inf)
    m = dataclasses.replace(m, r2=float(r2))
    assert m.r2 - m.boundary_tol * max(1.0, m.r2) == target
    return m, np.vstack([on_sphere, X, queries])


def planted_svm(spec, nudge):
    """An SVM whose bias puts the first query's exact margin at 0.0 (nudge 0,
    so HIGH) or at the smallest double above it (nudge 1, so LOW)."""
    X, y, queries, stats = sample(33)
    m = train_csvm(X, y, spec, 1.0, norm_stats=stats)
    acc = float(_margins(dataclasses.replace(m, bias=0.0), queries[:1])[0])
    bias = -acc
    for _ in range(nudge):
        bias = np.nextafter(bias, np.inf)
    m = dataclasses.replace(m, bias=float(bias))
    margin = float(_margins(m, queries[:1])[0])
    assert margin == 0.0 if nudge == 0 else 0.0 < margin < 1e-15
    return m, queries


def planted_cases(spec):
    """(model, predict, exact labels, queries, the planted first row's label)."""
    cases = []
    for C in (0.2, 1.0):
        m, Q = planted_svdd(spec, C)
        cases.append((m, predict, exact_svdd_labels, Q, HIGH))
    for nudge, label in ((0, HIGH), (1, LOW)):
        m, Q = planted_svm(spec, nudge)
        cases.append((m, predict_csvm, exact_svm_labels, Q, label))
    return cases


def test_screened_labels_equal_exact_loop(spec):
    for m, predict_fn, exact_fn, Q, label in planted_cases(spec):
        got = predict_fn(m, Q)
        assert np.array_equal(got, exact_fn(m, Q))
        assert got[0] == label


def test_non_finite_rows_get_the_exact_loop_labels(spec):
    X, y, queries, stats = sample(34)
    Q = queries[:6].copy()
    Q[0, 0], Q[1, 1], Q[2, 2] = np.nan, np.inf, -np.inf
    m = train(X, spec, 0.5, norm_stats=stats)
    svm = train_csvm(X, y, spec, 1.0, norm_stats=stats)
    with np.errstate(invalid="ignore"):     # the exact loop's own inf - inf
        assert np.array_equal(predict(m, Q), exact_svdd_labels(m, Q))
        assert np.array_equal(predict_csvm(svm, Q), exact_svm_labels(svm, Q))


@pytest.mark.parametrize("d", [1, 4, 9])
def test_screen_within_its_derived_bound(spec, d):
    """screen_sum's err is 64 times a bound it derives; the sum must lie
    within the bound itself, for rows on top of a stored vector (where the
    erbf square root is steepest), near it and far away."""
    rng = np.random.default_rng(35 + d)
    S = rng.normal(size=(60, d))
    w = rng.normal(size=60)
    X = np.vstack([S, S + 1e-9 * rng.normal(size=S.shape),
                   rng.normal(size=(500, d)) * rng.choice([0.1, 1.0, 5.0], size=(500, 1))])
    acc, err = kernels.screen_sum(spec, w, S, X)
    exact = kernels.kernel_sum(spec, w, S, np.asfortranarray(X))
    assert np.all(np.abs(acc - exact) <= err / kernels._SCREEN_SAFETY)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
def test_labels_survive_screen_error_within_half_its_bound(monkeypatch, spec):
    """The screen's rounding depends on the BLAS kernel and thread count.
    Noise of up to half of screen_sum's err stands in for any such rounding:
    no label may move, and the planted threshold rows must still reach the
    exact re-check."""
    rng = np.random.default_rng(36)
    screen = kernels.screen_sum
    screened, rechecked = [], []

    def noisy(spec, weights, S, X):
        acc, err = screen(spec, weights, S, X)
        screened.append(len(X))
        return acc + rng.uniform(-0.5, 0.5, size=acc.shape) * err, err

    def recorded(exact):
        def wrapper(m, X):
            rechecked.append(np.array(X, dtype=float))
            return exact(m, X)
        return wrapper

    cases = planted_cases(spec)
    monkeypatch.setattr(svdd, "screen_sum", noisy)
    monkeypatch.setattr(baselines, "screen_sum", noisy)
    monkeypatch.setattr(svdd, "_radius2", recorded(_radius2))
    monkeypatch.setattr(baselines, "_margins", recorded(_margins))
    for m, predict_fn, exact_fn, Q, _ in cases:
        screened.clear()
        rechecked.clear()
        assert np.array_equal(predict_fn(m, Q), exact_fn(m, Q))
        assert screened == [len(Q)]  # every row went through the noise
        assert any((block == Q[0]).all(axis=1).any() for block in rechecked)


def test_scoring_memory_stays_bounded():
    """32,000 rows against 100 stored vectors. An (n, n_sv) block of kernel
    values would take 25.6 MB and an (n, d+2) copy of the queries 1.5 MB;
    the scorers keep the normalized queries (1 MB, 2 MB while normalizing),
    a few n-vectors (256 KB each) and blocks of at most 256 KB."""
    rng = np.random.default_rng(37)
    n, d, n_sv = 32000, 4, 100
    V = rng.normal(size=(n_sv, d))
    stats = NormStats.identity(d)
    X = rng.normal(size=(n, d))
    alphas = np.full(n_sv, 1.0 / n_sv)
    sphere = SvddModel(V, alphas, SPECS[0], 1.0, 0.5,
                       float(alphas @ gram(SPECS[0], V) @ alphas), stats)
    betas = rng.uniform(0.1, 1.0, size=n_sv)
    svm = SvmModel(SPECS[0], 1.0, betas, np.where(rng.uniform(size=n_sv) < 0.5, 1.0, -1.0),
                   V, 0.1, stats)
    for model, predict_fn in ((sphere, predict), (svm, predict_csvm)):
        predict_fn(model, X[:10])
        tracemalloc.start()
        try:
            predict_fn(model, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.6e6, f"{predict_fn.__name__}: peak {peak / 1e6:.2f} MB"
