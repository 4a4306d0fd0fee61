import math
import warnings

import numpy as np
import pytest

from welldesc import KernelSpec, eval_kernel, gram, kernel_row
from welldesc import kernels
from welldesc.kernels import kernel_diag
from welldesc.errors import DimensionMismatch, InvalidConfig


def test_gaussian_is_one_at_zero_distance():
    spec = KernelSpec(width=2.0)
    x = np.array([0.3, -1.2, 4.0])
    assert eval_kernel(spec, x, x) == 1.0


def test_gaussian_hand_value():
    # squared distance 4, width 2 -> exp(-4/4)
    spec = KernelSpec(width=2.0)
    k = eval_kernel(spec, np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    assert abs(k - math.exp(-1.0)) < 1e-12
    assert k == pytest.approx(0.367879, abs=1e-6)


def test_polynomial_hand_value():
    spec = KernelSpec(family="polynomial", degree=2, offset=0.0)
    k = eval_kernel(spec, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert k == 4.0


def test_erbf_hand_value():
    # distance 5, width 2 -> exp(-2.5); and the self-value stays exactly 1
    spec = KernelSpec(family="erbf", width=2.0)
    k = eval_kernel(spec, np.array([0.0, 0.0]), np.array([3.0, 4.0]))
    assert abs(k - math.exp(-2.5)) < 1e-12
    assert eval_kernel(spec, np.array([7.0]), np.array([7.0])) == 1.0


def test_dimension_mismatch_rejected():
    spec = KernelSpec()
    with pytest.raises(DimensionMismatch):
        eval_kernel(spec, np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("call", [
    lambda spec: kernel_row(spec, np.ones(2), np.ones((4, 3))),
    lambda spec: kernel_diag(spec, np.ones(3)),
    lambda spec: kernels.kernel_sum(spec, [1.0], np.ones((1, 2)), np.ones((4, 3))),
    lambda spec: gram(spec, np.ones(3)),
], ids=["kernel_row", "kernel_diag", "kernel_sum", "gram"])
def test_block_shape_mismatch_rejected(call):
    with pytest.raises(DimensionMismatch):
        call(KernelSpec())


def test_bounds_and_symmetry():
    rng = np.random.default_rng(5)
    specs = [KernelSpec(width=0.7), KernelSpec(family="erbf", width=1.3),
             KernelSpec(family="polynomial", degree=3, offset=1.0)]
    for _ in range(50):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        for spec in specs:
            a = eval_kernel(spec, x, y)
            b = eval_kernel(spec, y, x)
            assert a == b
            if spec.family != "polynomial":
                assert 0.0 < a <= 1.0


def test_width_must_be_positive():
    with pytest.raises(InvalidConfig):
        KernelSpec(width=0.0)
    with pytest.raises(InvalidConfig):
        KernelSpec(width=-1.5)
    # positive, but its square underflows to 0.0 or to a subnormal number,
    # and scoring divides by it; or infinite, which makes every kernel value 1
    for family in ("gaussian", "erbf"):
        for width in (1e-200, 1e-160, 1e-155, math.inf):
            with pytest.raises(InvalidConfig):
                KernelSpec(family=family, width=width)
    assert KernelSpec(width=1e-150).width == 1e-150
    assert KernelSpec(width=1.5e-154).width == 1.5e-154


def test_polynomial_parameter_ranges():
    with pytest.raises(InvalidConfig):
        KernelSpec(family="polynomial", degree=1)
    with pytest.raises(InvalidConfig):
        KernelSpec(family="polynomial", degree=11)
    with pytest.raises(InvalidConfig, match="degree must be an integer, got 2.9"):
        KernelSpec(family="polynomial", degree=2.9)
    for offset in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidConfig):
            KernelSpec(family="polynomial", offset=offset)
    KernelSpec(family="polynomial", degree=2, offset=0.0)
    KernelSpec(family="polynomial", degree=10)


def test_unknown_family_rejected():
    with pytest.raises(InvalidConfig):
        KernelSpec(family="sigmoid")


def test_gram_single_point_gaussian():
    G = gram(KernelSpec(width=1.0), np.array([[2.0, 3.0]]))
    assert G.shape == (1, 1)
    assert G[0, 0] == 1.0


def test_gram_duplicated_rows_all_ones():
    X = np.tile(np.array([0.5, -0.5, 2.0]), (4, 1))
    G = gram(KernelSpec(width=2.0), X)
    assert np.array_equal(G, np.ones((4, 4)))


def test_gram_matches_eval_kernel_entrywise():
    """Every Gram entry must equal the scalar kernel, not just approximately."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 3))
    for spec in (KernelSpec(width=1.7), KernelSpec(family="erbf", width=0.9),
                 KernelSpec(family="polynomial", degree=4, offset=0.5)):
        G = gram(spec, X)
        for i in range(5):
            for j in range(5):
                assert G[i, j] == eval_kernel(spec, X[i], X[j])


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(8, 4))
    G = gram(KernelSpec(width=1.1), X)
    assert np.array_equal(G, G.T)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 31))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n, d))
        G = gram(KernelSpec(width=float(rng.uniform(0.5, 3.0))), X)
        assert np.linalg.eigvalsh(G)[0] >= -1e-8


def test_gram_permutation_consistency():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(7, 3))
    perm = rng.permutation(7)
    spec = KernelSpec(width=1.4)
    G = gram(spec, X)
    Gp = gram(spec, X[perm])
    assert np.array_equal(Gp, G[np.ix_(perm, perm)])


def test_kernel_row_matches_eval():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(6, 2))
    q = rng.normal(size=2)
    spec = KernelSpec(width=2.0)
    row = kernel_row(spec, q, X)
    for i in range(6):
        assert row[i] == eval_kernel(spec, q, X[i])


def test_block_row_equals_per_row_values():
    """A stored vector against a query block gives, bit for bit, the values
    each query gets against the stored vectors; batched scoring relies on it."""
    rng = np.random.default_rng(16)
    V = rng.normal(size=(5, 3))
    Q = rng.normal(size=(40, 3))
    for spec in (KernelSpec(width=1.7), KernelSpec(family="erbf", width=0.9),
                 KernelSpec(family="polynomial", degree=4, offset=0.5)):
        block = np.array([kernel_row(spec, v, Q) for v in V])
        per_query = np.array([kernel_row(spec, q, V) for q in Q])
        assert np.array_equal(block, per_query.T)
        diag = kernel_diag(spec, Q)
        assert all(diag[i] == eval_kernel(spec, q, q) for i, q in enumerate(Q))


@pytest.mark.parametrize("d", [4, 9, 20])
def test_kernel_row_and_diag_are_gram_bits(d):
    """The SVM's kernel cache reads columns and the diagonal instead of the
    Gram, and its output is bit-identical only if these are. numpy sums 8 or
    more values pairwise, so d = 9 and 20 cover that path too."""
    rng = np.random.default_rng(17 + d)
    X = rng.normal(size=(60, d))
    for spec in (KernelSpec(width=1.3), KernelSpec(family="erbf", width=0.8),
                 KernelSpec(family="polynomial", degree=3, offset=1.0)):
        G = gram(spec, X)
        for i in range(X.shape[0]):
            assert kernel_row(spec, X[i], X).tobytes() == G[:, i].tobytes()
        assert kernel_diag(spec, X).tobytes() == G.diagonal().tobytes()


# -- layouts, zero widths and the blocked Gram --------------------------------

_SPECS = (KernelSpec(width=1.3), KernelSpec(family="erbf", width=0.8),
          KernelSpec(family="polynomial", degree=3, offset=1.0))


def _row_major_values(spec, x, Y):
    """The values np.sum(..., axis=-1) gives over C-ordered rows."""
    Y = np.ascontiguousarray(Y)
    if spec.family == "polynomial":
        return (np.sum(Y * x, axis=-1) + spec.offset) ** spec.degree
    d2 = np.sum(np.square(Y - x), axis=-1)
    if spec.family == "gaussian":
        return np.exp(-d2 / (spec.width * spec.width))
    return np.exp(-np.sqrt(d2) / spec.width)


def _layouts(rng, n, d):
    """The same (n, d) values C-ordered, Fortran-ordered and as a strided view."""
    big = rng.normal(size=(2 * n, 3 * d))
    view = big[::2, 1::3]
    return {"C": np.ascontiguousarray(view), "F": np.asfortranarray(view), "sliced": view}


@pytest.mark.parametrize("d", [4, 9, 20])
def test_values_do_not_depend_on_layout(d):
    rng = np.random.default_rng(30 + d)
    layouts = _layouts(rng, 25, d)
    C = layouts["C"]
    for spec in _SPECS:
        G = gram(spec, C)
        diag = kernel_diag(spec, C)
        for name, X in layouts.items():
            assert gram(spec, X).tobytes() == G.tobytes(), name
            assert kernel_diag(spec, X).tobytes() == diag.tobytes(), name
            for i in (0, 7, 24):
                row = kernel_row(spec, C[i], C)
                assert kernel_row(spec, X[i], X).tobytes() == row.tobytes(), name
                assert kernel_row(spec, C[i], X).tobytes() == row.tobytes(), name
                assert eval_kernel(spec, X[i], X[3]) == eval_kernel(spec, C[i], C[3]), name
                if d < 8:
                    # fewer than 8 terms: numpy's row sum is left to right too
                    assert row.tobytes() == _row_major_values(spec, C[i], C).tobytes()


@pytest.mark.parametrize("spec", _SPECS, ids=["gaussian", "erbf", "polynomial"])
def test_zero_width_inputs_give_ones(spec):
    """With no features every squared distance and dot product is 0, so the
    default kernels are all 1; the polynomial's offset is 1 here."""
    assert np.array_equal(kernel_row(spec, np.zeros(0), np.zeros((3, 0))), np.ones(3))
    assert np.array_equal(kernel_diag(spec, np.zeros((3, 0))), np.ones(3))
    assert np.array_equal(gram(spec, np.zeros((4, 0))), np.ones((4, 4)))
    assert eval_kernel(spec, np.zeros(0), np.zeros(0)) == 1.0


@pytest.mark.parametrize("d", [0, 3])
def test_zero_rows_give_empty_results(d):
    for spec in _SPECS:
        assert kernel_row(spec, np.zeros(d), np.zeros((0, d))).shape == (0,)
        assert kernel_diag(spec, np.zeros((0, d))).shape == (0,)
        assert gram(spec, np.zeros((0, d))).shape == (0, 0)


@pytest.mark.parametrize("budget, n, rows", [
    (40, 7, 1), (40, 3, 3), (40, 4, 2), (40, 5, 2), (None, 60, 136), (None, 150, 54),
], ids=["one-row-blocks", "one-block", "even-blocks", "ragged-blocks",
        "default-one-block", "default-ragged"])
def test_blocked_gram_is_kernel_row_columns(monkeypatch, budget, n, rows):
    """Each Gram block is one broadcast of several rows against all of them;
    every column must still be the kernel_row of its point, and G = G.T."""
    if budget is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", budget)
    assert max(1, kernels._BLOCK_ENTRIES // (n * 4)) == rows
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 4))
    for spec in _SPECS:
        G = gram(spec, X)
        assert G.tobytes() == np.ascontiguousarray(G.T).tobytes()
        for i in range(n):
            assert G[:, i].tobytes() == kernel_row(spec, X[i], X).tobytes()


@pytest.mark.parametrize("budget, n", [(40, 7), (40, 5), (None, 150)])
def test_gram_computes_the_upper_triangle_only(monkeypatch, budget, n):
    """Each block of rows a:b is computed against the columns a: alone; its
    lower-left part comes from the mirror, so no kernel value is computed twice
    outside the blocks on the diagonal."""
    if budget is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", budget)
    rows = max(1, kernels._BLOCK_ENTRIES // (n * 4))
    computed = []

    def counting(spec, xT, YT, _core=kernels._rows_core):
        out = _core(spec, xT, YT)
        computed.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_rows_core", counting)
    gram(KernelSpec(width=1.3), np.random.default_rng(n).normal(size=(n, 4)))
    assert computed == [(min(a + rows, n) - a) * (n - a) for a in range(0, n, rows)]


@pytest.mark.parametrize("budget", [28, 40, None], ids=["ragged", "even", "default"])
def test_blocked_diag_is_per_row_values(monkeypatch, budget):
    """kernel_diag runs in blocks of rows; each value must still be the
    point's eval_kernel(x, x), in blocks that end mid-sample or not."""
    if budget is not None:
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", budget)
    rng = np.random.default_rng(18)
    X = np.asfortranarray(rng.normal(size=(30, 4)))
    for spec in _SPECS:
        diag = kernel_diag(spec, X)
        assert all(diag[i] == eval_kernel(spec, x, x) for i, x in enumerate(X))


@pytest.mark.parametrize("family", ["gaussian", "erbf"])
@pytest.mark.parametrize("width", [1.5e-154, 2e-154, 3e-154, 4e-154])
def test_widths_near_the_floor_compute_without_warnings(family, width):
    """Near the width floor a squared distance over width**2, and the screen's
    stored vectors times 2/width**2, overflow. exp(-inf) = 0 is the kernel's
    value there, so every entry point stays silent and every value is 0 off the
    diagonal."""
    from welldesc import predict, predict_csvm, train, train_csvm
    from welldesc.kernels import screen_sum

    spec = KernelSpec(family=family, width=width)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3)) * 3.0  # stored vectors with |s| > 2
    y = np.array([0, 1] * 15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = gram(spec, X)
        row = kernel_row(spec, X[0], X)
        acc, err = screen_sum(spec, np.ones(30), X, X)
        exact = kernels.kernel_sum(spec, np.ones(30), X, X)
        m = train(X[:15], spec, 1.0)
        labels = predict(m, X)
        svm = train_csvm(X, y, spec, 1.0)
        svm_labels = predict_csvm(svm, X)
    assert np.array_equal(G, np.eye(30)) and np.array_equal(row, np.eye(30)[0])
    assert np.array_equal(exact, np.ones(30))
    # the screen's contract: within err/64 of the exact sum, or undecided
    assert np.all((np.abs(acc - exact) <= err / 64) | ~np.isfinite(acc + err))
    assert labels.shape == svm_labels.shape == (30,)


@pytest.mark.parametrize("entry", ["eval_kernel", "kernel_row", "kernel_diag", "kernel_sum", "gram"])
def test_polynomial_overflow_still_warns(entry):
    """Every entry point enters the kernels' error state once around its own
    loop; an overflowing polynomial value is no kernel limit and must warn."""
    spec = KernelSpec(family="polynomial", degree=3, offset=1e300)
    X = np.ones((3, 2))
    calls = {
        "eval_kernel": lambda: eval_kernel(spec, X[0], X[1]),
        "kernel_row": lambda: kernel_row(spec, X[0], X),
        "kernel_diag": lambda: kernel_diag(spec, X),
        "kernel_sum": lambda: kernels.kernel_sum(spec, np.ones(3), X, X),
        "gram": lambda: gram(spec, X),
    }
    with pytest.warns(RuntimeWarning, match="overflow"):
        calls[entry]()
