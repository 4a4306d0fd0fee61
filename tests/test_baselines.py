import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from welldesc import (
    HIGH,
    LOW,
    KernelSpec,
    NormStats,
    normalize_apply,
    predict_csvm,
    predict_gnb,
    predict_lda,
    svm_decision,
    train_csvm,
    train_gnb,
    train_lda,
)
from welldesc import baselines, smo
from welldesc.errors import (
    DimensionMismatch,
    NonConvergence,
    NonFiniteInput,
    SingleClassInput,
    SingularCovariance,
)
from welldesc.kernels import gram

from oracle import solve_box_qp

WIDE = KernelSpec(width=2.0)


# -------------------------------------------------------------- naive Bayes

def test_gnb_tie_goes_to_majority():
    # symmetric classes around 0: the midpoint scores are equal
    X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    m = train_gnb(X, y)
    assert predict_gnb(m, np.array([[0.0]]))[0] == HIGH


def test_gnb_recovers_separated_clusters():
    rng = np.random.default_rng(41)
    X = np.vstack([rng.normal(0.0, 0.1, size=(20, 2)),
                   rng.normal(5.0, 0.1, size=(20, 2))])
    y = np.array([LOW] * 20 + [HIGH] * 20)
    m = train_gnb(X, y)
    assert predict_gnb(m, np.array([[0.0, 0.0]]))[0] == LOW
    assert predict_gnb(m, np.array([[5.0, 5.0]]))[0] == HIGH


def _gnb_scores_by_hand(X, y, queries):
    """Independent posterior arithmetic: population Gaussians per class and
    feature, variance floored, argmax log posterior with ties to HIGH."""
    out = []
    for q in queries:
        scores = {}
        for cls in (LOW, HIGH):
            rows = X[y == cls]
            prior = rows.shape[0] / X.shape[0]
            s = math.log(prior)
            for f in range(X.shape[1]):
                mu = float(rows[:, f].mean())
                var = max(float(rows[:, f].var()), 1e-9)
                s += -0.5 * math.log(2.0 * math.pi * var)
                s += -((q[f] - mu) ** 2) / (2.0 * var)
            scores[cls] = s
        out.append(LOW if scores[LOW] > scores[HIGH] else HIGH)
    return np.array(out)


def test_gnb_matches_hand_computed_posteriors():
    X = np.array([[0.0, 0.0], [0.2, 0.1], [0.1, 0.3],
                  [1.0, 1.0], [1.2, 0.9], [0.9, 1.2]])
    y = np.array([LOW, LOW, LOW, HIGH, HIGH, HIGH])
    queries = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5],
                        [0.3, 0.2], [0.8, 0.9], [2.0, -1.0]])
    m = train_gnb(X, y)
    assert np.array_equal(predict_gnb(m, queries), _gnb_scores_by_hand(X, y, queries))


def test_gnb_single_class_rejected():
    X = np.arange(6.0).reshape(3, 2)
    with pytest.raises(SingleClassInput):
        train_gnb(X, np.array([LOW, LOW, LOW]))


def test_gnb_feature_permutation_invariance():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(30, 4))
    y = (rng.uniform(size=30) < 0.5).astype(int)
    y[:2] = [LOW, HIGH]
    queries = rng.normal(size=(15, 4))
    perm = [2, 0, 3, 1]
    base = predict_gnb(train_gnb(X, y), queries)
    moved = predict_gnb(train_gnb(X[:, perm], y), queries[:, perm])
    assert np.array_equal(base, moved)


# ------------------------------------------------------------- discriminant

def test_lda_tie_goes_to_majority():
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    m = train_lda(X, y)
    assert predict_lda(m, np.array([[0.0]]))[0] == HIGH


def test_lda_recovers_separated_clusters():
    rng = np.random.default_rng(43)
    X = np.vstack([rng.normal(0.0, 0.2, size=(15, 2)),
                   rng.normal(4.0, 0.2, size=(15, 2))])
    y = np.array([LOW] * 15 + [HIGH] * 15)
    m = train_lda(X, y)
    assert predict_lda(m, np.array([[0.0, 0.0]]))[0] == LOW
    assert predict_lda(m, np.array([[4.0, 4.0]]))[0] == HIGH


def test_lda_matches_hand_evaluated_discriminant():
    """Classes built so the pooled covariance is diagonal; the linear scores
    can then be evaluated with scalar arithmetic."""
    X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, -1.0],
                  [4.0, 3.0], [6.0, 3.0], [5.0, 4.0], [5.0, 2.0]])
    y = np.array([LOW] * 4 + [HIGH] * 4)
    m = train_lda(X, y)

    # pooled population covariance diag(0.5, 0.5) plus the trace ridge
    s = 0.5 + 1e-6 * (0.5 + 0.5) / 2
    # no query sits on the exact decision line; a float tie there would be
    # rounding-path luck rather than arithmetic agreement
    mu = {LOW: np.array([1.0, 0.0]), HIGH: np.array([5.0, 3.0])}
    queries = np.array([[1.0, 0.0], [5.0, 3.0], [2.9, 1.5],
                        [2.2, 0.4], [4.1, 2.0], [0.0, 4.0]])
    expected = []
    for q in queries:
        scores = {}
        for cls in (LOW, HIGH):
            scores[cls] = (q @ mu[cls]) / s - 0.5 * (mu[cls] @ mu[cls]) / s + math.log(0.5)
        expected.append(LOW if scores[LOW] > scores[HIGH] else HIGH)
    assert np.array_equal(predict_lda(m, queries), np.array(expected))


def test_lda_constant_features_singular():
    X = np.full((6, 2), 3.0)
    y = np.array([LOW, LOW, LOW, HIGH, HIGH, HIGH])
    with pytest.raises(SingularCovariance):
        train_lda(X, y)


def test_lda_feature_permutation_invariance():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(30, 3))
    y = (rng.uniform(size=30) < 0.5).astype(int)
    y[:2] = [LOW, HIGH]
    queries = rng.normal(size=(12, 3))
    perm = [1, 2, 0]
    base = predict_lda(train_lda(X, y), queries)
    moved = predict_lda(train_lda(X[:, perm], y), queries[:, perm])
    assert np.array_equal(base, moved)


def test_lda_boundary_survives_affine_remap():
    """A linear decision rule commutes with invertible affine feature maps."""
    rng = np.random.default_rng(45)
    X = np.vstack([rng.normal(0.0, 0.5, size=(25, 2)),
                   rng.normal(3.0, 0.5, size=(25, 2))])
    y = np.array([LOW] * 25 + [HIGH] * 25)
    queries = rng.normal(1.5, 2.0, size=(40, 2))

    A = np.array([[2.0, 0.5], [-0.3, 1.5]])
    b = np.array([7.0, -2.0])
    base = predict_lda(train_lda(X, y), queries)
    moved = predict_lda(train_lda(X @ A.T + b, y), queries @ A.T + b)
    assert np.array_equal(base, moved)


def test_lda_single_class_rejected():
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(SingleClassInput):
        train_lda(X, np.array([HIGH, HIGH, HIGH, HIGH]))


# --------------------------------------------------------------------- SVM

def test_svm_two_point_symmetry():
    # near-linear regime: a very wide kernel on two mirrored points
    X = np.array([[0.0], [1.0]])
    y = np.array([LOW, HIGH])
    m = train_csvm(X, y, KernelSpec(width=100.0), 10.0)
    assert m.betas.size == 2
    assert m.betas[0] == m.betas[1]
    assert abs(m.bias) <= 1e-9
    assert abs(svm_decision(m, np.array([0.5]))) <= 1e-9
    # a query too remote to see either vector scores exactly 0: tie -> HIGH
    far = np.array([1e6])
    assert svm_decision(m, far) == 0.0
    assert predict_csvm(m, far.reshape(1, 1))[0] == HIGH


def test_svm_isolated_point_keeps_its_label():
    X = np.array([[0.0, 0.0], [0.3, 0.1], [3.0, 3.0], [3.2, 2.9], [20.0, 20.0]])
    y = np.array([LOW, LOW, HIGH, HIGH, LOW])
    m = train_csvm(X, y, WIDE, 1.0)
    assert predict_csvm(m, np.array([[20.0, 20.0]]))[0] == LOW


def test_svm_separated_clusters():
    rng = np.random.default_rng(46)
    X = np.vstack([rng.normal(0.0, 0.3, size=(12, 2)),
                   rng.normal(4.0, 0.3, size=(12, 2))])
    y = np.array([LOW] * 12 + [HIGH] * 12)
    m = train_csvm(X, y, WIDE, 1.0)
    assert predict_csvm(m, np.array([[0.0, 0.0]]))[0] == LOW
    assert predict_csvm(m, np.array([[4.0, 4.0]]))[0] == HIGH


def test_svm_dual_feasibility():
    rng = np.random.default_rng(47)
    for _ in range(10):
        n = int(rng.integers(6, 20))
        X = rng.normal(size=(n, 2))
        y = np.zeros(n, dtype=int)
        y[rng.choice(n, size=n // 2, replace=False)] = 1
        C = float(rng.uniform(0.5, 5.0))
        m = train_csvm(X, y, WIDE, C)
        assert abs(float(m.betas @ m.labels)) <= 1e-8
        assert np.all(m.betas > 0.0)          # only support vectors are stored
        assert np.all(m.betas <= C + 1e-12)


def test_svm_single_class_rejected():
    X = np.arange(10.0).reshape(5, 2)
    with pytest.raises(SingleClassInput):
        train_csvm(X, np.array([HIGH] * 5), WIDE, 1.0)


def test_svm_nonconvergence_with_tiny_budget():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(20, 2))
    y = np.zeros(20, dtype=int)
    y[:10] = 1
    with pytest.raises(NonConvergence):
        train_csvm(X, y, WIDE, 1.0, max_passes=1)


def test_svm_rejects_labels_of_another_length():
    X = np.arange(10.0).reshape(5, 2)
    with pytest.raises(DimensionMismatch, match="does not match"):
        train_csvm(X, np.array([LOW, HIGH, LOW, HIGH]), WIDE, 1.0)


# case -> (kernel, NaN in one training row, the warning the kernel raises).
# (x.x + 1e300)^3 overflows to inf; an inf offset is inf without overflowing.
NON_FINITE = {
    "offset-inf": (KernelSpec(family="polynomial", offset=math.inf), False, None),
    "offset-1e300": (KernelSpec(family="polynomial", offset=1e300), False, "overflow encountered"),
    "nan-row": (WIDE, True, None),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_svm_non_finite_kernel_rejected(case):
    """A kernel that is inf or NaN on the training rows fails, not a NaN model."""
    kernel, nan_row, warning = NON_FINITE[case]
    X = np.random.default_rng(9).normal(size=(12, 3))
    y = np.array([LOW, HIGH] * 6)
    if nan_row:
        X[4, 1] = math.nan
    with pytest.warns(RuntimeWarning, match=warning) if warning else contextlib.nullcontext():
        with pytest.raises(NonFiniteInput, match="not finite"):
            train_csvm(X, y, kernel, 1.0)


def test_svm_deterministic():
    rng = np.random.default_rng(49)
    X = rng.normal(size=(16, 3))
    y = (rng.uniform(size=16) < 0.5).astype(int)
    y[:2] = [LOW, HIGH]
    a = train_csvm(X, y, WIDE, 2.0)
    b = train_csvm(X, y, WIDE, 2.0)
    assert np.array_equal(a.betas, b.betas)
    assert a.bias == b.bias


# ------------------------------------------------- SVM dual reference check

def _svm_reference_cases():
    """(X, labels, kernel, C) of each checked problem."""
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        n, d = 10, int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y01 = np.zeros(n, dtype=int)
        y01[rng.choice(n, size=n // 2, replace=False)] = 1
        spec = KernelSpec(width=float(rng.uniform(0.5, 3.0)))
        yield X, y01, spec, float(rng.uniform(0.5, 10.0))
    # 7 points on a line under a wide kernel: the Gram's smallest eigenvalue
    # is 2.5e-13, and a most-violating-pair rule still violates the KKT
    # conditions by 4.5e-5 after the default 10 n^2 passes
    rng = np.random.default_rng(1005)
    n, d = int(rng.integers(6, 9)), int(rng.integers(1, 5))
    X = rng.normal(size=(n, d))
    spec = KernelSpec(width=float(rng.uniform(0.5, 4.0)))
    C = float(rng.uniform(0.1, 10.0))
    yield X, np.where(rng.uniform(size=n) < 0.4, LOW, HIGH), spec, C


def test_svm_solver_matches_reference_optimum():
    """The trained dual value equals the interior-point reference's."""
    worst = 0.0
    for X, y01, spec, C in _svm_reference_cases():
        m = train_csvm(X, y01, spec, C)
        ysv = m.labels
        Ksv = gram(spec, m.X_sv)
        got = float(m.betas.sum()
                    - 0.5 * m.betas @ ((ysv[:, None] * ysv[None, :]) * Ksv) @ m.betas)
        y = np.where(y01 == LOW, 1.0, -1.0)
        Q = (y[:, None] * y[None, :]) * gram(spec, X)
        b = solve_box_qp(Q, -np.ones(y.size), y, 0.0, C)
        ref = float(b.sum() - 0.5 * b @ Q @ b)
        worst = max(worst, abs(got - ref))
    assert worst <= 1e-5


def test_svm_training_holds_one_gram_matrix():
    """1500 rows make an 18 MB Gram matrix; training peaks at about that.

    Forming Q = (y y') * K beside the Gram takes two or three such matrices.
    """
    rng = np.random.default_rng(51)
    n = 1500
    X = rng.normal(size=(n, 3))
    y = np.where(rng.uniform(size=n) < 0.1, LOW, HIGH)
    X[y == LOW] += 1.5
    tracemalloc.start()
    try:
        train_csvm(X, y, WIDE, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, f"peak {peak / 1e6:.1f} MB"


def test_svm_training_holds_under_a_quarter_gram():
    """The solver reads kernel columns on demand, so the draw above peaks
    well below one 18 MB Gram."""
    rng = np.random.default_rng(51)
    n = 1500
    X = rng.normal(size=(n, 3))
    y = np.where(rng.uniform(size=n) < 0.1, LOW, HIGH)
    X[y == LOW] += 1.5
    tracemalloc.start()
    try:
        train_csvm(X, y, WIDE, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8, f"peak {peak / 1e6:.1f} MB"


# ------------------------------------------- kernel cache against dense Gram

def _train_traced(X, y, spec, C, *, dense=False, cache_bytes=None):
    """train_csvm, its full refreshes of v counted, and its kernel_row calls.

    dense=True feeds the solver smo.Dense over gram() instead of the cache:
    the reference the cached columns must reproduce.
    """
    refreshes, rows = [], []

    class Counted(smo.Dense if dense else baselines._KernelColumns):
        def dot(self, z):
            refreshes.append(1)
            return super().dot(z)

    plain_row = baselines.kernel_row

    def counted_row(*args):
        rows.append(1)
        return plain_row(*args)

    with pytest.MonkeyPatch.context() as mp:
        if dense:
            mp.setattr(baselines, "_KernelColumns", lambda kernel, Xn: Counted(gram(kernel, Xn)))
        else:
            mp.setattr(baselines, "_KernelColumns", Counted)
        if cache_bytes is not None:
            mp.setattr(baselines, "_CACHE_BYTES", cache_bytes)
        mp.setattr(baselines, "kernel_row", counted_row)
        m = train_csvm(X, y, spec, C)
    return m, len(refreshes), len(rows)


def _assert_same_model(a, b):
    assert a.betas.tobytes() == b.betas.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.X_sv.tobytes() == b.X_sv.tobytes()
    assert a.bias == b.bias


def _parity_draws():
    specs = (KernelSpec(width=1.5), KernelSpec(family="erbf", width=1.0),
             KernelSpec(family="polynomial", degree=2, offset=1.0))
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        n, d = int(rng.integers(20, 300)), int(rng.integers(2, 10))
        X = rng.normal(size=(n, d))
        y = np.where(rng.uniform(size=n) < 0.2, LOW, HIGH)
        y[:2] = [LOW, HIGH]
        X[y == LOW] += 1.0
        yield X, y, specs[seed % 3], float(rng.uniform(0.5, 5.0))


def _dual(m):
    Q = (m.labels[:, None] * m.labels[None, :]) * gram(m.kernel, m.X_sv)
    return float(m.betas.sum() - 0.5 * m.betas @ Q @ m.betas)


def test_svm_cached_columns_match_dense_gram_bit_for_bit():
    """Draws that converge before the refresh at pass 1024 give the same
    bytes; the rest, near-singular ones among them, the same dual value."""
    exact = 0
    for X, y, spec, C in _parity_draws():
        got, refreshes, _ = _train_traced(X, y, spec, C)
        ref, _, _ = _train_traced(X, y, spec, C, dense=True)
        if refreshes == 1:
            _assert_same_model(got, ref)
            exact += 1
        else:
            assert abs(_dual(got) - _dual(ref)) <= 1e-9 * abs(_dual(ref))
    assert exact >= 6


def test_svm_evicted_columns_are_recomputed_bit_for_bit():
    X, y, spec, C = next(_parity_draws())
    roomy, _, roomy_rows = _train_traced(X, y, spec, C)
    tight, _, tight_rows = _train_traced(X, y, spec, C, cache_bytes=3 * 8 * len(X))
    assert tight_rows > roomy_rows  # columns were dropped and computed again
    _assert_same_model(tight, roomy)
    _assert_same_model(tight, _train_traced(X, y, spec, C, dense=True)[0])


def test_svm_cached_columns_past_the_refresh_match_dense_dual_value():
    """Past pass 1024 v is recomputed from cached columns in another order;
    the dual optimum agrees to rounding. A cache of three columns, which must
    recompute most columns it sums, gives the cached result's bytes."""
    rng = np.random.default_rng(60)
    n = 1500
    X = rng.normal(size=(n, 3))
    y = np.where(rng.uniform(size=n) < 0.5, LOW, HIGH)
    got, refreshes, _ = _train_traced(X, y, WIDE, 1.0)
    ref, _, _ = _train_traced(X, y, WIDE, 1.0, dense=True)
    assert refreshes > 1
    assert abs(_dual(got) - _dual(ref)) <= 1e-9 * abs(_dual(ref))
    # a refresh recomputes the columns it finds evicted, to the same bits
    _assert_same_model(_train_traced(X, y, WIDE, 1.0, cache_bytes=3 * 8 * n)[0], got)


def test_svm_refresh_leaves_the_column_cache_alone():
    """dot(z) reads cached columns and computes the missing ones without
    keeping them, so a refresh neither evicts nor reorders the cache."""
    rng = np.random.default_rng(61)
    n = 40
    Xn = rng.normal(size=(n, 3))
    z = rng.normal(size=n)
    z[::3] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_CACHE_BYTES", 3 * 8 * n)
        cols = baselines._KernelColumns(WIDE, Xn)
    for i in (7, 2, 30, 2):
        cols.col(i)
    assert list(cols.cache) == [7, 30, 2]
    got = cols.dot(z)
    assert list(cols.cache) == [7, 30, 2]
    want = np.zeros(n)
    for i in np.flatnonzero(z):
        want += z[i] * baselines.kernel_row(WIDE, Xn[i], Xn)
    assert got.tobytes() == want.tobytes()

    # past the refresh at pass 1024, a cache of three columns trains the
    # bytes a cache that never evicts does
    rng = np.random.default_rng(60)
    X = rng.normal(size=(800, 3))
    y = np.where(rng.uniform(size=800) < 0.5, LOW, HIGH)
    tight, refreshes, _ = _train_traced(X, y, WIDE, 1.0, cache_bytes=3 * 8 * 800)
    assert refreshes > 1
    _assert_same_model(tight, _train_traced(X, y, WIDE, 1.0)[0])


# ----------------------------------------------------------- normalization

def test_trainers_accept_shared_norm_stats():
    rng = np.random.default_rng(50)
    X = np.vstack([rng.normal(0.0, 1.0, size=(20, 2)),
                   rng.normal(50.0, 5.0, size=(20, 2))])
    y = np.array([LOW] * 20 + [HIGH] * 20)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    queries = np.vstack([rng.normal(0.0, 1.0, size=(5, 2)),
                         rng.normal(50.0, 5.0, size=(5, 2))])

    for train_fn, predict_fn in ((train_gnb, predict_gnb),
                                 (train_lda, predict_lda)):
        with_stats = predict_fn(train_fn(X, y, stats), queries)
        on_scaled = predict_fn(train_fn(normalize_apply(stats, X), y),
                               normalize_apply(stats, queries))
        assert np.array_equal(with_stats, on_scaled)

    with_stats = predict_csvm(train_csvm(X, y, WIDE, 1.0, norm_stats=stats), queries)
    on_scaled = predict_csvm(train_csvm(normalize_apply(stats, X), y, WIDE, 1.0),
                             normalize_apply(stats, queries))
    assert np.array_equal(with_stats, on_scaled)
