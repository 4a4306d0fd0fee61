import threading
import tracemalloc
import zlib

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
from welldesc import relief
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
    y = np.array([LOW] * 400 + [HIGH] * 10)
    rng.shuffle(y)
    n_low = int((y == LOW).sum())
    # the majority's hit search takes blocks of _BLOCK_ENTRIES // n_low rows:
    # at least two blocks, and a row count they do not divide, so the last
    # block is a short one
    rows = _BLOCK_ENTRIES // n_low
    assert 1 <= rows < n_low and n_low % rows != 0
    return rng.normal(size=(410, 6)), y


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


def _one_ulp_pair(rng, centre, equal_root):
    """A row x and rows a, b near it whose squared distances from x, summed as
    the per-row pass sums them, differ by one ulp, a's being the smaller. With
    equal_root their square roots are equal as well."""
    while True:
        x = centre + rng.uniform(-0.05, 0.05, size=3)
        p = rng.uniform(-1e-2, 1e-2, size=3)
        a, b = x + p, x + p[[2, 0, 1]]
        ra, rb = np.square(x - np.array([a, b])).sum(axis=1)
        if rb == np.nextafter(ra, np.inf) and (np.sqrt(ra) == np.sqrt(rb)) == equal_root:
            return x, a, b


def _case_near_tie():
    # The corner rows pin the min-max scale to the identity, so the scaled rows
    # are the ones built here. Each x has b then a as its two nearest rows, a
    # one ulp nearer in squared distance: the lower index b must win when the
    # roots are equal and lose when they are not, for hits (x in a's class)
    # and for misses. The last a and b also have exact duplicates.
    rng = np.random.default_rng(46)
    X, y = [np.zeros(3), np.ones(3)], [LOW, HIGH]
    for centre, x_class, equal_root in [(0.25, LOW, True), (0.75, LOW, False),
                                        ((0.25, 0.75, 0.25), HIGH, True),
                                        ((0.75, 0.25, 0.75), HIGH, False)]:
        x, a, b = _one_ulp_pair(rng, np.broadcast_to(centre, 3), equal_root)
        X += [x, b, a]
        y += [x_class, LOW, LOW]
    X += [a, b]
    y += [LOW, LOW]
    return np.array(X), np.array(y)


def _case_synthetic_scale_table():
    table = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=1000, skew=0.95,
                                      n_features=6, seed=1))
    data = binarize_target(table, 0.7)
    return data.X, data.y


_BIT_IDENTITY_CASES = pytest.mark.parametrize("build", [
    _case_duplicate_rows,
    _case_single_member_class,
    _case_constant_feature,
    _case_ragged_last_block,
    _case_one_feature,
    _case_wide(9, 3),
    _case_wide(20, 2),
    _case_wide(140, 3),
    _case_synthetic_scale_table,
    _case_near_tie,
], ids=["duplicate-rows", "single-member-class", "constant-feature",
        "ragged-last-block", "one-feature", "9-features", "20-features",
        "140-features", "synthetic-8x1000", "near-tie"])


@_BIT_IDENTITY_CASES
def test_weights_bit_identical_to_per_row_pass(monkeypatch, build):
    """With one worker and with two, whatever the machine's CPU count."""
    X, y = build()
    expected = reference_relief(X, y)
    for workers in (1, 2):
        monkeypatch.setattr(relief, "_WORKERS", workers)
        assert np.array_equal(relief_weights(X, y).weights, expected), workers


def test_weights_bit_identical_with_small_uneven_blocks(monkeypatch):
    """A 64-entry budget: the 40 low rows' miss search against 10 candidates
    takes blocks of 6 rows, seven of them, so the calling thread gets four,
    the other thread three, and the last block holds 4 rows."""
    monkeypatch.setattr(relief, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(relief, "_WORKERS", 2)
    search = relief._search
    ranges = []

    def recording(Q, C, CA, tol, skip_self, pos, start, stop, qa, s):
        ranges.append((start, stop, len(s)))
        search(Q, C, CA, tol, skip_self, pos, start, stop, qa, s)

    monkeypatch.setattr(relief, "_search", recording)
    rng = np.random.default_rng(49)
    y = np.array([LOW] * 40 + [HIGH] * 10)
    rng.shuffle(y)
    X = rng.normal(size=(50, 3))
    assert np.array_equal(relief_weights(X, y).weights, reference_relief(X, y))
    assert {(0, 24, 6), (24, 40, 6)} <= set(ranges)


@pytest.mark.parametrize("side", ["other-thread", "calling-thread"])
def test_search_error_reaches_the_caller(monkeypatch, side):
    """A thread keeps its exception to itself, which would leave its rows of
    the result unset; relief_weights must raise it instead, and leave no
    thread behind."""
    monkeypatch.setattr(relief, "_WORKERS", 2)
    caller = threading.current_thread()
    screen = relief._screen
    error = RuntimeError("screen failed")

    def failing(qa, CA, out):
        if (threading.current_thread() is caller) == (side == "calling-thread"):
            raise error
        screen(qa, CA, out)

    monkeypatch.setattr(relief, "_screen", failing)
    threads = threading.active_count()
    X, y = _case_ragged_last_block()
    with pytest.raises(RuntimeError) as raised:
        relief_weights(X, y)
    assert raised.value is error
    assert threading.active_count() == threads


@_BIT_IDENTITY_CASES
def test_weights_survive_screen_error_within_half_its_bound(monkeypatch, build):
    """The screen's rounding depends on the BLAS kernel and thread count.
    Noise of up to half the re-check bound, 64·(d+2)·d·eps, stands in for
    any such rounding: the weights must not move."""
    screen = relief._screen
    calls = []

    def noisy(qa, CA, out):
        calls.append(len(qa))
        d = CA.shape[0] - 1  # the last row of CA holds ‖c‖²
        half = 32 * (d + 2) * d * np.finfo(float).eps
        # seeded by the block itself, so the noise does not depend on which
        # thread screens the block or when
        rng = np.random.default_rng([48, zlib.crc32(qa.tobytes())])
        screen(qa, CA, out)
        out += rng.uniform(-half, half, size=out.shape)

    monkeypatch.setattr(relief, "_screen", noisy)
    X, y = build()
    assert np.array_equal(relief_weights(X, y).weights, reference_relief(X, y))
    assert sum(calls) >= len(X)  # every query row was screened through the noise


def test_temporary_memory_stays_bounded():
    """A 6000-row n×n distance matrix would take 288 MB; the blockwise search
    keeps a few n×d copies (about 0.3 MB each) plus one 1 MB block buffer for
    each of at most two threads."""
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


@_BIT_IDENTITY_CASES
def test_weights_do_not_depend_on_layout(build):
    """A Fortran-ordered X gives the bytes a C-ordered one gives. With 8 or
    more features a row sum's order depends on the layout, so every distance
    must be taken over rows gathered in one layout."""
    X, y = build()
    C = np.ascontiguousarray(X, dtype=float)
    F = np.asfortranarray(X, dtype=float)
    expected = relief_weights(C, y).weights
    assert relief_weights(F, y).weights.tobytes() == expected.tobytes()
