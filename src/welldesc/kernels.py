"""Kernel evaluation and Gram matrix construction.

Three families:
    gaussian    exp(-||x - y||^2 / s^2)
    erbf        exp(-||x - y|| / s)
    polynomial  (x . y + c)^p
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, MalformedFile

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
        """Inverse of describe()."""
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
                                  offset=float(fields.pop("offset")))
            else:
                spec = KernelSpec(family=family, width=float(fields.pop("width")))
        except (KeyError, ValueError) as exc:
            raise MalformedFile(f"bad kernel line {line!r}") from exc
        if fields:
            raise MalformedFile(f"unexpected kernel fields {sorted(fields)}")
        return spec


def _rows_core(spec: KernelSpec, x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # One point against each row of Y, or row-wise pairs when x and Y have
    # the same shape. Every family works elementwise and reduces along the
    # last axis with the same numpy machinery, so a 1-row call and a row
    # inside a larger block produce bit-identical values. Batched scoring
    # relies on this: kernel_row(spec, sv, Xq) evaluates a stored vector
    # against a whole query block and must match, value for value, the
    # per-query call kernel_row(spec, xq, X_sv).
    if spec.family == POLYNOMIAL:
        return (np.sum(Y * x, axis=-1) + spec.offset) ** spec.degree
    d2 = np.sum(np.square(Y - x), axis=-1)
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
    return float(_rows_core(spec, x, y[np.newaxis, :])[0])


def kernel_row(spec: KernelSpec, x, Y) -> np.ndarray:
    """Kernel values of one point against every row of Y."""
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if x.ndim != 1 or Y.ndim != 2 or Y.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"expected (d,) and (n, d) arguments, got {x.shape} and {Y.shape}")
    return _rows_core(spec, x, Y)


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """K(x, x) of every row x of X, bit-identical to eval_kernel(spec, x, x)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    return _rows_core(spec, X, X)


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric kernel matrix of the rows of X.

    Each pair is evaluated once and mirrored, so G is exactly symmetric.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    n = X.shape[0]
    G = np.empty((n, n))
    for i in range(n):
        row = _rows_core(spec, X[i], X[i:])
        G[i, i:] = row
        G[i:, i] = row
    return G
