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
    w = relief_weights(X, y)
    assert abs(w[0] - 0.75) <= 1e-12


def test_constant_feature_scores_exactly_zero():
    X = np.array([[0.0, 5.0], [0.1, 5.0], [0.9, 5.0], [1.0, 5.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    w = relief_weights(X, y)
    assert w[1] == 0.0
    assert w[0] > 0.0


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
    base = relief_weights(X, y)

    scaled = X * np.array([3.7, 1.0, 0.002, -5.0]) + np.array([-2.0, 0.0, 40.0, 1.0])
    moved = relief_weights(scaled, y)
    assert np.all(np.abs(moved - base) <= 1e-12)


def test_weights_deterministic():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(25, 3))
    y = (rng.uniform(size=25) < 0.5).astype(int)
    y[:2] = [LOW, HIGH]
    assert np.array_equal(relief_weights(X, y), relief_weights(X, y))


def test_select_top_orders_by_weight():
    assert select_top(np.array([0.3, 0.1, 0.2]), 2) == [0, 2]


def test_select_top_tie_keeps_lowest_index():
    assert select_top(np.array([0.5, 0.5, 0.5]), 1) == [0]


def test_select_top_k_out_of_range():
    w = np.array([0.5, 0.2])
    with pytest.raises(InvalidK):
        select_top(w, 0)
    with pytest.raises(InvalidK):
        select_top(w, 3)


def test_constant_feature_never_beats_a_positive_one():
    X = np.array([[0.0, 7.0], [0.1, 7.0], [0.9, 7.0], [1.0, 7.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    assert select_top(relief_weights(X, y), 1) == [0]


def test_informative_features_outrank_noise_on_synthetic_data():
    table = gen_synthetic(SynthConfig(n_wells=1, rows_per_well=250, skew=0.9,
                                      n_features=4, seed=1))
    data = binarize_target(table, 0.7)
    w = relief_weights(data.X, data.y)
    # generator layout: first two carry the classes, last two are noise
    names = {data.feature_names[i] for i in select_top(w, 2)}
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
def test_weights_bit_identical_to_per_row_pass(build):
    """The same bytes whatever type the two labels have."""
    X, y = build()
    want = reference_relief(X, y).tobytes()
    for labels in (y, y == HIGH, y.astype(float), np.where(y == HIGH, "high", "low")):
        assert relief_weights(X, labels).tobytes() == want


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.integers(-3, 4, size=n),
    lambda rng, n: rng.uniform(size=n) < 0.3,
    lambda rng, n: rng.choice([0.0, -0.0, 1.5, -2.0, 1e300, 5e-324], size=n),
    lambda rng, n: rng.choice(["low", "high", "", "HIGH", "b\u00e9"], size=n),
], ids=["int", "bool", "float", "str"])
def test_class_list_is_np_unique(draw):
    rng = np.random.default_rng(51)
    for n in [1, 2, 3, *rng.integers(4, 600, size=60)]:
        y = draw(rng, n)
        want = np.unique(y)
        got = relief._classes(y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), y


def test_weights_bit_identical_with_small_uneven_blocks(monkeypatch):
    """A 64-entry budget: the 40 low rows' miss search against 10 candidates
    takes blocks of 6 rows, seven of them, the last holding 4 rows."""
    monkeypatch.setattr(relief, "_BLOCK_ENTRIES", 64)
    screen = relief._screen
    blocks = []

    def recording(qa, CA, out):
        blocks.append(out.shape)
        screen(qa, CA, out)

    monkeypatch.setattr(relief, "_screen", recording)
    rng = np.random.default_rng(49)
    y = np.array([LOW] * 40 + [HIGH] * 10)
    rng.shuffle(y)
    X = rng.normal(size=(50, 3))
    assert np.array_equal(relief_weights(X, y), reference_relief(X, y))
    low_miss = [(6, 10)] * 6 + [(4, 10)]
    assert any(blocks[i:i + 7] == low_miss for i in range(len(blocks)))


def _screen_error(d):
    """The float32 screen's bound e per entry, derived in relief._nearest:
    (3d(d+1) + 5d)·u for u = 2⁻²⁴, plus (4d+1)·2⁻¹⁵⁰ for underflow."""
    return (3 * d * (d + 1) + 5 * d) * 2.0**-24 + (4 * d + 1) * 2.0**-150


def _screen_cases(d, seed):
    """Queries and candidates in [0, 1]^d: uniform rows, 0/1 corners, rows and
    single coordinates that are subnormal in float32, and candidates a few
    float64 ulps from another one."""
    rng = np.random.default_rng(seed)
    Q = rng.uniform(size=(40, d))
    C = rng.uniform(size=(240, d))
    C[:20] = rng.integers(0, 2, size=(20, d))
    Q[:5] = C[:5]
    C[20:40] = rng.uniform(size=(20, d)) * 2.0**-140
    Q[5:10] = C[20:25]
    for M in (Q, C):
        spots = rng.uniform(size=M.shape) < 0.1
        M[spots] = rng.uniform(size=spots.sum()) * 2.0**-130
    C[40:80] = np.clip(C[80:120] + rng.integers(-4, 5, size=(40, d)) * 2.0**-52, 0.0, 1.0)
    Q[10:15] = C[40:45]
    return Q, C


@pytest.mark.parametrize("d", [1, 6, 20, 140])
def test_float32_screen_stays_within_its_derived_bound(monkeypatch, d):
    """Every screen entry lies within e of ‖c‖² − 2q·c taken in long double,
    whose own error is far below e even where long double is float64."""
    screen = relief._screen
    blocks = []

    def keeping(qa, CA, out):
        screen(qa, CA, out)
        blocks.append(out.copy())  # _nearest overwrites the argmin next

    monkeypatch.setattr(relief, "_screen", keeping)
    Q, C = _screen_cases(d, seed=50 + d)
    relief._nearest(Q, C)
    s = np.concatenate(blocks).astype(np.longdouble)
    Ql, Cl = Q.astype(np.longdouble), C.astype(np.longdouble)
    exact = np.square(Cl).sum(axis=1) - 2 * (Ql @ Cl.T)
    worst = np.abs(s - exact).max()
    assert s.shape == exact.shape and worst <= _screen_error(d), worst / _screen_error(d)


@_BIT_IDENTITY_CASES
def test_weights_survive_screen_error_within_half_its_bound(monkeypatch, build):
    """The screen's rounding depends on the BLAS kernel. Noise of up to half
    the re-check bound, 4·2e, stands in for any such rounding: the weights
    must not move."""
    screen = relief._screen
    calls = []

    def noisy(qa, CA, out):
        calls.append(len(qa))
        d = CA.shape[0] - 1  # the last row of CA holds ‖c‖²
        half = 4 * _screen_error(d)
        # seeded by the block itself, so the noise depends only on its rows
        rng = np.random.default_rng([48, zlib.crc32(qa.tobytes())])
        screen(qa, CA, out)
        out += rng.uniform(-half, half, size=out.shape)

    monkeypatch.setattr(relief, "_screen", noisy)
    X, y = build()
    assert np.array_equal(relief_weights(X, y), reference_relief(X, y))
    assert sum(calls) >= len(X)  # every query row was screened through the noise


def test_temporary_memory_stays_bounded():
    """A 6000-row n×n distance matrix would take 288 MB; the blockwise search
    keeps a few n×d copies (about 0.3 MB each) plus one 0.5 MB float32 block
    buffer. The peak measured 1.4 MB with numpy 2.4, the same for a
    process's first call and its second."""
    rng = np.random.default_rng(47)
    X = rng.normal(size=(6000, 6))
    y = _labels(rng, 6000, 0.05)
    tracemalloc.start()
    try:
        relief_weights(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cell_rejected(bad):
    X = np.array([[0.0, 1.0], [0.1, 0.9], [0.9, bad], [1.0, 0.0]])
    y = np.array([LOW, LOW, HIGH, HIGH])
    with pytest.raises(NonFiniteInput):
        relief_weights(X, y)


def test_nan_label_rejected():
    X = np.array([[0.0, 1.0], [0.1, 0.9], [0.9, 0.1], [1.0, 0.0]])
    with pytest.raises(NonFiniteInput, match="NaN label"):
        relief_weights(X, np.array([LOW, LOW, HIGH, np.nan]))


@_BIT_IDENTITY_CASES
def test_weights_do_not_depend_on_layout(build):
    """A Fortran-ordered X gives the bytes a C-ordered one gives. With 8 or
    more features a row sum's order depends on the layout, so every distance
    must be taken over rows gathered in one layout."""
    X, y = build()
    C = np.ascontiguousarray(X, dtype=float)
    F = np.asfortranarray(X, dtype=float)
    expected = relief_weights(C, y)
    assert relief_weights(F, y).tobytes() == expected.tobytes()
