"""Batched scoring against a per-row reference.

The package scores a query block in one pass over the nonzero-weight
vectors. The reference below is the per-row formula, written out here: each
query's kernel row against every stored vector, reduced with a dot product.
Kernel values are bit-identical between the two; only the order of the
weighted sum differs, so scores agree to 1e-12 relative and labels exactly.
"""

import numpy as np
import pytest

from welldesc import (
    HIGH,
    INSIDE,
    LOW,
    KernelSpec,
    NormStats,
    SvddTrainConfig,
    SvmModel,
    decide,
    eval_kernel,
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
    m = train(X, SvddTrainConfig(kernel=spec, C=C), stats)
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
    m = train(X, SvddTrainConfig(kernel=SPECS[0], C=1.0), stats)
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
    svdd = train(X, SvddTrainConfig(kernel=SPECS[0], C=0.5), stats)
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
