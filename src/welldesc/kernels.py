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
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, MalformedFile

# Entries of one Gram block's (d, rows, n) temporary: 256 KB of float64,
# however many rows and features the sample has.
_BLOCK_ENTRIES = 32768

GAUSSIAN = "gaussian"
POLYNOMIAL = "polynomial"
ERBF = "erbf"

_FAMILIES = (GAUSSIAN, POLYNOMIAL, ERBF)


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
        object.__setattr__(self, "degree", int(self.degree))
        object.__setattr__(self, "offset", float(self.offset))
        if self.family not in _FAMILIES:
            raise InvalidConfig(f"unknown kernel family {self.family!r}")
        if self.family in (GAUSSIAN, ERBF) and not self.width > 0:
            raise InvalidConfig("kernel width must be positive")
        if self.family == POLYNOMIAL:
            if not 2 <= self.degree <= 10:
                raise InvalidConfig("polynomial degree must lie in [2, 10]")
            if not self.offset >= 0:
                raise InvalidConfig("polynomial offset must be >= 0")

    def describe(self) -> str:
        """One-line serialized form used in model files."""
        if self.family == POLYNOMIAL:
            return f"kernel=polynomial degree={self.degree} offset={self.offset!r}"
        return f"kernel={self.family} width={self.width!r}"

    @staticmethod
    def parse(line: str) -> "KernelSpec":
        """Inverse of describe(). A width or offset that is not finite is
        malformed: no trainer writes one."""
        fields = {}
        for token in line.split():
            if "=" not in token:
                raise MalformedFile(f"bad kernel token {token!r}")
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            family = fields.pop("kernel")
            if family == POLYNOMIAL:
                spec = KernelSpec(family=family, degree=int(fields.pop("degree")),
                                  offset=_finite(fields.pop("offset")))
            else:
                spec = KernelSpec(family=family, width=_finite(fields.pop("width")))
        except (KeyError, ValueError) as exc:
            raise MalformedFile(f"bad kernel line {line!r}") from exc
        if fields:
            raise MalformedFile(f"unexpected kernel fields {sorted(fields)}")
        return spec


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


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
    if spec.family == POLYNOMIAL:
        return (_feature_sum(YT * xT) + spec.offset) ** spec.degree
    D = YT - xT
    d2 = _feature_sum(np.square(D, out=D))
    if spec.family == GAUSSIAN:
        return np.exp(-d2 / (spec.width * spec.width))
    return np.exp(-np.sqrt(d2) / spec.width)


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Kernel value of a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DimensionMismatch(
            f"kernel arguments need matching 1-d shapes, got {x.shape} and {y.shape}")
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
    return _rows_core(spec, x[:, np.newaxis], Y.T)


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """K(x, x) of every row x of X, bit-identical to eval_kernel(spec, x, x)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    return _rows_core(spec, X.T, X.T)


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric kernel matrix of the rows of X.

    Built in blocks of rows, each one broadcast of its rows against every
    row through a temporary of at most _BLOCK_ENTRIES entries (more only
    when a single row needs them). Both triangles are computed, and G is
    exactly symmetric; column i equals kernel_row(spec, X[i], X) bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    G = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // max(n * X.shape[1], 1))
    for a in range(0, n, rows):
        G[a:a + rows] = _rows_core(spec, XT[:, a:a + rows, np.newaxis], XT[:, np.newaxis, :])
    return G
