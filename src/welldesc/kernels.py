"""Kernel evaluation and Gram matrix construction.

Three families:
    gaussian    exp(-||x - y||^2 / s^2)
    erbf        exp(-||x - y|| / s)
    polynomial  (x . y + c)^p

Every value is computed on feature-major operands: the sample is read as
d rows of n values, one per feature, so each numpy call runs along the
samples, not along the few features of one sample. The d per-feature terms
are added left to right from zero, so a kernel value does not depend on the
memory layout of its inputs nor on which call computed it. For d < 8 this
is the order np.sum(..., axis=-1) uses on a row; for d >= 8 numpy sums a
row pairwise, so values may differ from that expression in the last bit.
Callers that evaluate many rows of one sample pass it in Fortran order
(np.asfortranarray), which makes the feature-major view contiguous.

Weighted sums sum_i w_i K(s_i, x) over stored vectors s_i, the scores of the
hypersphere and of the SVM, come two ways. kernel_sum is the exact loop: one
kernel_row per stored vector over the whole query block, added in order
from zero; radius2_of, decide and svm_decision score through it. screen_sum
is the screen the label paths (svdd.predict, baselines.predict_csvm) use:
one product per block of query rows, plus a per-row bound on its distance
from kernel_sum's value, derived in its docstring. A label path re-scores
with kernel_sum only the rows whose screened score lies within that bound
of the decision threshold, so its labels equal the exact loop's bit for bit.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig

# Entries of one Gram block's (d, rows, n) temporary: 256 KB of float64,
# however many rows and features the sample has.
_BLOCK_ENTRIES = 32768

GAUSSIAN = "gaussian"
POLYNOMIAL = "polynomial"
ERBF = "erbf"

_FAMILIES = (GAUSSIAN, POLYNOMIAL, ERBF)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    width applies to gaussian and erbf; degree and offset to polynomial.
    """

    family: str = GAUSSIAN
    width: float = 2.0
    degree: int = 3
    offset: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "width", float(self.width))
        if int(self.degree) != self.degree:
            raise InvalidConfig(f"kernel degree must be an integer, got {self.degree!r}")
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "offset", float(self.offset))
        if self.family not in _FAMILIES:
            raise InvalidConfig(f"unknown kernel family {self.family!r}")
        # the screen divides by width**2, which is subnormal below about 1.5e-154
        # (0.0 below about 1.5e-162): 1 / width**2 then overflows its operands
        if self.family in (GAUSSIAN, ERBF) and not (0 < self.width < math.inf
                                                    and self.width * self.width >= _TINY):
            raise InvalidConfig(f"kernel width must be positive with a nonzero square that is not "
                                f"subnormal, and finite, got {self.width!r}")
        if self.family == POLYNOMIAL:
            if not 2 <= self.degree <= 10:
                raise InvalidConfig("polynomial degree must lie in [2, 10]")
            if not 0 <= self.offset < math.inf:
                raise InvalidConfig(f"polynomial offset must be >= 0 and finite, got {self.offset!r}")


def _feature_sum(T: np.ndarray) -> np.ndarray:
    """T[0] + T[1] + ... added left to right from zero; zeros when d = 0."""
    out = np.zeros(T.shape[1:])
    for t in T:
        out += t
    return out


def _rows_core(spec: KernelSpec, xT: np.ndarray, YT: np.ndarray) -> np.ndarray:
    # Kernel values of feature-major operands: xT and YT are (d, ...) and
    # broadcast against each other over the trailing axes, so one point
    # (d, 1) against a sample (d, n), row-wise pairs (d, n) and (d, n), or a
    # block (d, r, 1) against (d, 1, n) all run through here. Each value
    # sums its own d per-feature terms, left to right from zero, whatever
    # the shape, strides or block around it. Batched scoring relies on
    # this: kernel_row(spec, sv, Xq) evaluates a stored vector against a
    # whole query block and must match, value for value, the per-query call
    # kernel_row(spec, xq, X_sv). The Gram is exactly symmetric because
    # (a - b)^2 == (b - a)^2 and a * b == b * a in floating point.
    # Callers run it under _errstate(spec), entered once around their loop.
    if spec.family == POLYNOMIAL:
        return (_feature_sum(YT * xT) + spec.offset) ** spec.degree
    D = YT - xT
    d2 = _feature_sum(np.square(D, out=D))
    if spec.family == GAUSSIAN:
        return np.exp(-d2 / (spec.width * spec.width))
    return np.exp(-np.sqrt(d2) / spec.width)


def _errstate(spec: KernelSpec):
    """The error state _rows_core runs under. In gaussian and erbf an
    overflow gives an infinite distance, whose exp(-inf) = 0 is the kernel's
    limit, so it is silent there; an infinite polynomial value is no limit,
    and its overflow warns."""
    if spec.family == POLYNOMIAL:
        return contextlib.nullcontext()
    return np.errstate(over="ignore")


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Kernel value of a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DimensionMismatch(
            f"kernel arguments need matching 1-d shapes, got {x.shape} and {y.shape}")
    with _errstate(spec):
        return float(_rows_core(spec, x[:, np.newaxis], y[:, np.newaxis])[0])


def kernel_row(spec: KernelSpec, x, Y) -> np.ndarray:
    """Kernel values of one point against every row of Y.

    Y is (n, d) in any layout; a Fortran-ordered Y is read contiguously.
    """
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if x.ndim != 1 or Y.ndim != 2 or Y.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"expected (d,) and (n, d) arguments, got {x.shape} and {Y.shape}")
    with _errstate(spec):
        return _rows_core(spec, x[:, np.newaxis], Y.T)


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """K(x, x) of every row x of X, bit-identical to eval_kernel(spec, x, x).

    Computed in blocks of rows, each through temporaries of at most
    _BLOCK_ENTRIES entries.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    out = np.empty(X.shape[0])
    rows = max(1, _BLOCK_ENTRIES // max(X.shape[1], 1))
    with _errstate(spec):
        for a in range(0, X.shape[0], rows):
            XT = X[a:a + rows].T
            out[a:a + rows] = _rows_core(spec, XT, XT)
    return out


def kernel_sum(spec: KernelSpec, weights, S, X) -> np.ndarray:
    """sum_i weights[i] * K(S[i], x) of every row x of X, the exact loop.

    One row of kernel_row's values per stored vector over the whole block,
    all under one error state, each weighted row added into one accumulator
    in vector order from zero, so memory stays O(rows) however many vectors
    there are; with no vectors every sum is 0. Rows never mix: a row's sum
    is the same bytes in any block. A Fortran-ordered X is read
    feature-major and contiguous.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    if X.ndim != 2 or S.ndim != 2 or S.shape[1] != X.shape[1]:
        raise DimensionMismatch(
            f"expected (m, d) and (n, d) arguments, got {S.shape} and {X.shape}")
    XT = X.T
    acc = np.zeros(X.shape[0])
    with _errstate(spec):
        for w, s in zip(weights, S):
            acc += w * _rows_core(spec, s[:, np.newaxis], XT)
    return acc


# Multiple of the derived rounding bound that screen_sum reports.
_SCREEN_SAFETY = 64.0
_U = np.finfo(float).eps / 2  # unit roundoff


def screen_sum(spec: KernelSpec, weights, S, X) -> tuple:
    """(acc, err): kernel_sum(spec, weights, S, X) screened, and its bound.

    For every row x of X, acc lies within err/64 of the exact loop's sum:
    err is 64 times the bound derived below, so a caller that takes a row
    as decided only where its screened score clears err by the same measure
    keeps a wide margin. X is (n, d) in any layout.

    Blocks of rows are built one at a time, each operand and each block of
    kernel values at most _BLOCK_ENTRIES entries, so there is no (n, d+2)
    or (n, m) copy of a query sample against m stored vectors. A gaussian or
    erbf block is one (d+2)-term product [x, ‖x‖², 1]·[2s, −1, −‖s‖²]/w²,
    which is −‖x − s‖²/w², clamped at 0; erbf then takes −sqrt(−·); exp
    runs in place. A polynomial block is [x, 1]·[s, c] raised to the degree
    in place. One product with the weights finishes the block.

    The bound, per row, with u the unit roundoff, T = (‖x‖ + max‖s‖)²/w²,
    B = ‖x‖·max‖s‖ + c and L = sum|w_i|:
      - Gaussian. The operands carry relative errors of at most (d+3)u
        (‖x‖², ‖s‖² and the scaling), and the product adds (d+2)u in any
        BLAS order, each times the sum of the terms' magnitudes, at most
        (‖x‖ + ‖s‖)²/w² ≤ T; the clamp at 0 only moves it toward the exact
        argument, which is ≤ 0. kernel_row's argument (the negated sum of
        squared differences over w²) is within (d+4)u of exact relative to
        its size, itself at most T. Both arguments are ≤ 0, where exp is
        1-Lipschitz, and numpy's exp is within 4 ulp, so the two kernel
        values differ by η ≤ (3d+10)uT + 16u, and each is at most 1.
      - erbf. |sqrt(a) − sqrt(b)| ≤ sqrt(|a − b|), so the screened distance
        is within sqrt((2d+6)uT) of exact; kernel_row's distance over w is
        within (d/2+4)u·sqrt(T); with exp as above, η ≤ sqrt((2d+6)uT) +
        (d/2+4)u·sqrt(T) + 16u, and each value is at most 1.
      - Polynomial. Both x·s + c, the screen's in any order and kernel_row's
        left to right, lie within (d+1)uB of exact, and each value's size is
        at most B; raising to the degree p multiplies their difference by at
        most p·B^(p−1), and pow adds 4 ulp to each: η ≤ (2p(d+1) + 16)uB^p,
        and each value is at most B^p in size.
    With kmax the largest value's size, the weighted kernel errors add up
    to at most L·η; the screen's sum of m products, in any order, and the
    exact loop's m rounded additions each add at most m·u·L·kmax. So
    |acc − exact| ≤ L·(η + 2m·u·kmax), to first order in u. A row with a
    NaN or an infinite number has a NaN or an infinite acc or err, which
    callers treat as undecided.
    """
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    w = np.asarray(weights, dtype=float)
    n, d = X.shape
    m = w.shape[0]
    rbf = spec.family != POLYNOMIAL
    k = d + 2 if rbf else d + 1
    SA = np.empty((k, m))
    s2 = np.einsum("ij,ij->i", S, S)
    if rbf:
        inv = 1.0 / (spec.width * spec.width)
        SA[d] = -inv
    else:
        SA[:d] = S.T
        SA[d] = spec.offset
    rows = max(1, min(n, _BLOCK_ENTRIES // max(m, k)))
    QA = np.empty((rows, k))
    QA[:, -1] = 1.0
    P = np.empty((rows, m))
    acc = np.empty(n)
    # An overflow or an inf - inf in the screen, here or in its operands,
    # makes its row's err infinite or NaN, so the row is re-scored by the
    # exact loop; the screen itself stays silent.
    with np.errstate(over="ignore", invalid="ignore"):
        if rbf:
            np.multiply(S.T, 2.0 * inv, out=SA[:d])
            np.multiply(s2, -inv, out=SA[d + 1])
        x2 = np.einsum("ij,ij->i", X, X)
        for a in range(0, n, rows):
            r = min(rows, n - a)
            qa, p = QA[:r], P[:r]
            qa[:, :d] = X[a:a + r]
            if rbf:
                qa[:, d] = x2[a:a + r]
            _screen(spec, qa, SA, p)
            np.matmul(p, w, out=acc[a:a + r])
        return acc, _screen_bound(spec, x2, s2, w, d)


def _screen(spec: KernelSpec, qa, SA, out):
    """Kernel values of one block into out, from its product qa @ SA."""
    np.matmul(qa, SA, out=out)
    if spec.family == POLYNOMIAL:
        np.power(out, spec.degree, out=out)
        return
    np.minimum(out, 0.0, out=out)
    if spec.family == ERBF:
        np.negative(np.sqrt(np.negative(out, out=out), out=out), out=out)
    np.exp(out, out=out)


def _screen_bound(spec: KernelSpec, x2, s2, w, d):
    """err of screen_sum: _SCREEN_SAFETY times its derived bound, per row.

    Built in x2's buffer, which it takes over. With no stored vectors both
    sums are exactly 0.
    """
    u, m, b = _U, w.shape[0], x2
    if not m:
        return np.zeros_like(b)
    sn = float(np.sqrt(s2.max()))
    np.sqrt(b, out=b)                                # ‖x‖
    if spec.family == POLYNOMIAL:
        b *= sn
        b += spec.offset
        np.power(b, spec.degree, out=b)              # kmax = B^p
        b *= (2 * spec.degree * (d + 1) + 16 + 2 * m) * u
    else:
        b += sn
        b /= spec.width                              # sqrt(T); kmax = 1
        if spec.family == GAUSSIAN:
            np.square(b, out=b)
            b *= (3 * d + 10) * u
        else:
            b *= math.sqrt((2 * d + 6) * u) + (d / 2 + 4) * u
        b += (16 + 2 * m) * u
    b *= _SCREEN_SAFETY * float(np.abs(w).sum())
    return b


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric kernel matrix of the rows of X.

    Built in blocks of rows, each one broadcast of its rows against the
    rows from its first on through a temporary of at most _BLOCK_ENTRIES
    entries (more only when a single row needs them): the upper triangle,
    mirrored into the lower one. _rows_core gives K(a, b) and K(b, a) the
    same bits, so G is exactly symmetric and column i equals
    kernel_row(spec, X[i], X) bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    G = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // max(n * X.shape[1], 1))
    with _errstate(spec):
        for a in range(0, n, rows):
            b = min(a + rows, n)
            G[a:b, a:] = _rows_core(spec, XT[:, a:b, np.newaxis], XT[:, np.newaxis, a:])
            G[b:, a:b] = G[a:b, b:].T
    return G
