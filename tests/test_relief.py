import tracemalloc

import numpy as np
import pytest

from welldesc import (
    HIGH,
    LOW,
    SynthConfig,
    binarize_target,
    gen_synthetic,
    relief_weights,
    select_top,
)
from welldesc.errors import (
    ConstantAllFeatures,
    DimensionMismatch,
    InvalidK,
    NonFiniteInput,
    SingleClassInput,
)
from welldesc.relief import _BLOCK_ENTRIES


def test_hand_worked_one_dimensional_case():
    # {0, 0.1} vs {0.9, 1.0}: per-row contributions 0.8, 0.7, 0.7, 0.8
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    fw = relief_weights(X, y)
    assert abs(fw.weights[0] - 0.75) <= 1e-12


def test_constant_feature_scores_exactly_zero():
    X = np.array([[0.0, 5.0], [0.1, 5.0], [0.9, 5.0], [1.0, 5.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    fw = relief_weights(X, y)
    assert fw.weights[1] == 0.0
    assert fw.weights[0] > 0.0


def test_all_features_constant_rejected():
    X = np.full((4, 3), 2.5)
    y = np.array([LOW, LOW, HIGH, HIGH])
    with pytest.raises(ConstantAllFeatures):
        relief_weights(X, y)


def test_single_class_rejected():
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(SingleClassInput):
        relief_weights(X, np.array([LOW, LOW, LOW, LOW]))


def test_weights_invariant_under_feature_rescaling():
    """Min-max scaling inside the pass absorbs any per-feature affine map,
    including sign flips."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(30, 4))
    y = (rng.uniform(size=30) < 0.4).astype(int)
    y[:2] = [LOW, HIGH]   # both classes guaranteed
    base = relief_weights(X, y).weights

    scaled = X * np.array([3.7, 1.0, 0.002, -5.0]) + np.array([-2.0, 0.0, 40.0, 1.0])
    moved = relief_weights(scaled, y).weights
    assert np.all(np.abs(moved - base) <= 1e-12)


def test_weights_deterministic():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(25, 3))
    y = (rng.uniform(size=25) < 0.5).astype(int)
    y[:2] = [LOW, HIGH]
    a = relief_weights(X, y)
    b = relief_weights(X, y)
    assert np.array_equal(a.weights, b.weights)


def test_default_feature_names():
    X = np.array([[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.2]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    assert relief_weights(X, y).feature_names == ["f1", "f2"]


def test_select_top_orders_by_weight():
    from welldesc.relief import FeatureWeights
    fw = FeatureWeights(weights=np.array([0.3, 0.1, 0.2]),
                        feature_names=["a", "b", "c"])
    assert select_top(fw, 2) == [0, 2]


def test_select_top_tie_keeps_lowest_index():
    from welldesc.relief import FeatureWeights
    fw = FeatureWeights(weights=np.array([0.5, 0.5, 0.5]),
                        feature_names=["a", "b", "c"])
    assert select_top(fw, 1) == [0]


def test_select_top_k_out_of_range():
    from welldesc.relief import FeatureWeights
    fw = FeatureWeights(weights=np.array([0.5, 0.2]),
                        feature_names=["a", "b"])
    with pytest.raises(InvalidK):
        select_top(fw, 0)
    with pytest.raises(InvalidK):
        select_top(fw, 3)


def test_constant_feature_never_beats_a_positive_one():
    X = np.array([[0.0, 7.0], [0.1, 7.0], [0.9, 7.0], [1.0, 7.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    fw = relief_weights(X, y)
    assert select_top(fw, 1) == [0]


def test_informative_features_outrank_noise_on_synthetic_data():
    table = gen_synthetic(SynthConfig(n_wells=1, rows_per_well=250, skew=0.9,
                                      n_features=4, seed=1))
    data = binarize_target(table, 0.7)
    fw = relief_weights(data.X, data.y, data.feature_names)
    # generator layout: first two carry the classes, last two are noise
    names = {fw.feature_names[i] for i in select_top(fw, 2)}
    assert names == {"f1", "f2"}


def test_non_matrix_input_rejected():
    with pytest.raises(DimensionMismatch):
        relief_weights(np.array([0.0, 0.1, 0.9, 1.0]), np.array([LOW, LOW, HIGH, HIGH]))


def test_label_length_mismatch_rejected():
    X = np.array([[0.0], [0.1], [0.9], [1.0]])
    with pytest.raises(DimensionMismatch):
        relief_weights(X, np.array([LOW, LOW, HIGH]))
    with pytest.raises(DimensionMismatch):
        relief_weights(X, np.array([LOW, LOW, HIGH, HIGH, HIGH]))
    with pytest.raises(DimensionMismatch):
        relief_weights(X, np.array([[LOW], [LOW], [HIGH], [HIGH]]))


# -- blockwise search against the plain per-row pass -------------------------

def reference_relief(X, y):
    """The one-row-at-a-time Relief pass: full n-vector distances and
    class masks per row, W updated in place row by row."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n, d = X.shape
    vmin = X.min(axis=0)
    spread = X.max(axis=0) - vmin
    S = (X - vmin) / np.where(spread > 0, spread, 1.0)
    W = np.zeros(d)
    for i in range(n):
        diffs = np.abs(S - S[i])
        dist = np.sqrt(np.square(diffs).sum(axis=1))
        same = y == y[i]
        hit_dist = np.where(same, dist, np.inf)
        hit_dist[i] = np.inf
        miss_dist = np.where(same, np.inf, dist)
        j_hit = int(np.argmin(hit_dist))
        j_miss = int(np.argmin(miss_dist))
        if np.isfinite(hit_dist[j_hit]):
            W -= diffs[j_hit]
        W += diffs[j_miss]
    W /= n
    return W


def _labels(rng, n, frac_high):
    y = np.where(rng.uniform(size=n) < frac_high, HIGH, LOW)
    y[:2] = [LOW, HIGH]
    return y


def _case_duplicate_rows():
    # a small integer grid: exact duplicate rows and equal distances in
    # different directions, so the lowest row index must win hits and misses
    rng = np.random.default_rng(0)
    X = rng.integers(0, 4, size=(90, 2)).astype(float)
    return X, _labels(rng, 90, 0.4)


def _case_single_member_class():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(40, 4))
    y = np.full(40, LOW)
    y[17] = HIGH
    return X, y


def _case_constant_feature():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(50, 4))
    X[:, 2] = 3.5
    return X, _labels(rng, 50, 0.3)


def _case_ragged_last_block():
    rng = np.random.default_rng(44)
    y = np.array([LOW] * 290 + [HIGH] * 10)
    rng.shuffle(y)
    n_low = int((y == LOW).sum())
    # the majority's hit search takes blocks of 32768 // n_low rows, which
    # must not divide its row count, so the last block is a short one
    assert n_low % max(1, _BLOCK_ENTRIES // n_low) != 0
    return rng.normal(size=(300, 6)), y


def _case_one_feature():
    # W's 401 terms form one contiguous column, which a plain sum would add
    # pairwise instead of in row order
    rng = np.random.default_rng(45)
    return rng.normal(size=(200, 1)), _labels(rng, 200, 0.5)


def _case_wide(d, seed):
    # 8 or more features: numpy sums each distance row pairwise, not left to
    # right. Values in tenths put rows at distances that are equal in exact
    # arithmetic, so only the summation order decides the neighbor.
    def build():
        rng = np.random.default_rng(seed)
        return rng.integers(0, 11, size=(80, d)) / 10, _labels(rng, 80, 0.3)
    return build


def _case_synthetic_scale_table():
    table = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=1000, skew=0.95,
                                      n_features=6, seed=1))
    data = binarize_target(table, 0.7)
    return data.X, data.y


@pytest.mark.parametrize("build", [
    _case_duplicate_rows,
    _case_single_member_class,
    _case_constant_feature,
    _case_ragged_last_block,
    _case_one_feature,
    _case_wide(9, 3),
    _case_wide(20, 2),
    _case_wide(140, 3),
    _case_synthetic_scale_table,
], ids=["duplicate-rows", "single-member-class", "constant-feature",
        "ragged-last-block", "one-feature", "9-features", "20-features",
        "140-features", "synthetic-8x1000"])
def test_weights_bit_identical_to_per_row_pass(build):
    X, y = build()
    assert np.array_equal(relief_weights(X, y).weights, reference_relief(X, y))


def test_temporary_memory_stays_bounded():
    """A 6000-row n×n distance matrix would take 288 MB; the blockwise search
    keeps a few n×d copies (about 0.3 MB each) plus 256 KB blocks."""
    rng = np.random.default_rng(47)
    X = rng.normal(size=(6000, 6))
    y = _labels(rng, 6000, 0.05)
    tracemalloc.start()
    try:
        relief_weights(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cell_rejected(bad):
    X = np.array([[0.0, 1.0], [0.1, 0.9], [0.9, bad], [1.0, 0.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    with pytest.raises(NonFiniteInput):
        relief_weights(X, y)
