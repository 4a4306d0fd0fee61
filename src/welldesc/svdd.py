"""Minimum enclosing hypersphere in kernel space, trained on one class.

The dual problem is

    maximize  L(a) = sum_i a_i K_ii - sum_ij a_i a_j K_ij
    subject to  sum_i a_i = 1,  0 <= a_i <= C.

Training points with 0 < a_i < C sit on the sphere; a_i = C marks points
pushed outside. The squared boundary radius r2 is the largest R^2 among the
on-sphere points, and a query x scores

    R^2(x) = K(x, x) - 2 sum_i a_i K(x_i, x) + sum_ij a_i a_j K(x_i, x_j).

train solves the dual with the pairwise solver the SVM baseline also uses
(`welldesc.smo`), as the minimum of 1/2 a'(2K)a - diag(K)'a with every
y_i = 1.

radius2_of and decide score with the exact loop, `kernels.kernel_sum`.
predict screens each block with `kernels.screen_sum` and re-scores with the
exact loop only the rows whose screened R^2 lies within a tolerance of the
band's lower limit r2 - tau: twice the screen's bound (64 times the rounding
bound derived in `kernels.screen_sum`) plus the rounding of R^2's own two
additions. Its labels are therefore the exact loop's.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, NormStats, normalize_apply
from .errors import DimensionMismatch, EmptyTrainingSet, InfeasibleCost
from . import smo
from .kernels import KernelSpec, gram, kernel_diag, kernel_sum, screen_sum
from .kernels import eval_kernel, kernel_row  # noqa: F401  only for perfbench/spans.py

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass
class SvddModel:
    X_train: np.ndarray      # stored target vectors, already normalized
    alphas: np.ndarray
    kernel: KernelSpec
    C: float
    r2: float
    self_term: float         # sum_ij a_i a_j K_ij, cached for scoring
    norm_stats: NormStats
    kkt_tol = smo.TOL        # not a field: the solver's stopping gap, the same for every model
    boundary_tol = 1e-7      # not a field: relative half-width of decide()'s boundary band


def _self_term(G: np.ndarray, alphas: np.ndarray) -> float:
    return float(alphas @ (G @ alphas))


def check_cost(C: float, n: int, where: str = "") -> None:
    """InfeasibleCost unless 1/n <= C <= 1 for n target vectors (a NaN C fails
    too), with 1e-12 of slack at each end. `where`, if given, is appended to
    the message to say which vectors n counts."""
    if not 1.0 / n - 1e-12 <= C <= 1.0 + 1e-12:
        raise InfeasibleCost(f"C={C} outside [1/n, 1] for n={n}{where}")


def train(X_target, kernel: KernelSpec, C: float = 1.0, max_passes: int | None = None,
          norm_stats: NormStats | None = None) -> SvddModel:
    """Fit the hypersphere to one class of training vectors.

    max_passes caps the solver's passes; None leaves smo.solve's default.
    norm_stats defaults to the identity; pass stats fitted on the training
    rows to bake z-scoring into the model.
    """
    X = np.asarray(X_target, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    n = X.shape[0]
    if n == 0:
        raise EmptyTrainingSet("no target vectors")
    C = float(C)
    check_cost(C, n)

    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    Xn = normalize_apply(stats, X)
    G = gram(kernel, Xn)
    # -L(a) = 1/2 a'(2G)a - diag(G)'a; scaling by 2 in place is exact and
    # spares a second n x n matrix
    p = -G.diagonal()
    G *= 2.0
    alphas = smo.solve(smo.Dense(G), np.ones(n), p, C, np.full(n, 1.0 / n), max_passes)[0]
    G *= 0.5

    Ka = G @ alphas
    self_term = float(alphas @ Ka)
    r2_each = G.diagonal() - 2.0 * Ka + self_term
    unbounded = smo.free(alphas, C)
    if unbounded.any():
        r2 = float(r2_each[unbounded].max())
    else:
        positive = alphas > smo.TOL
        r2 = float(r2_each[positive].max()) if positive.any() else 0.0
    r2 = max(r2, 0.0)

    return SvddModel(
        X_train=Xn,
        alphas=alphas,
        kernel=kernel,
        C=C,
        r2=r2,
        self_term=self_term,
        norm_stats=stats,
    )


def _live(m: SvddModel) -> tuple:
    """Weights and vectors of the stored vectors with nonzero weight, the only ones that score."""
    live = m.alphas != 0.0
    return m.alphas[live], m.X_train[live]


def _radius2(m: SvddModel, X) -> np.ndarray:
    """R^2 of every row of a raw-space query block, by the exact loop.

    normalize_apply lays the block out feature-major, so each kernel_row
    reads it contiguous.
    """
    Xn = normalize_apply(m.norm_stats, X)
    return kernel_diag(m.kernel, Xn) - 2.0 * kernel_sum(m.kernel, *_live(m), Xn) + m.self_term


def _band(m: SvddModel) -> tuple[float, float]:
    """R^2 limits of the boundary band, r2 -/+ a relative tolerance."""
    tau = m.boundary_tol * max(1.0, m.r2)
    return m.r2 - tau, m.r2 + tau


def radius2_of(m: SvddModel, x) -> float:
    """Squared kernel-space distance of x from the sphere center."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(
            f"expected a vector of {m.X_train.shape[1]} features, got shape {x.shape}")
    return float(_radius2(m, x[np.newaxis, :])[0])


def decide(m: SvddModel, x) -> str:
    """INSIDE / BOUNDARY / OUTSIDE with a relative tolerance band at r2."""
    rho = radius2_of(m, x)
    lo, hi = _band(m)
    if rho < lo:
        return INSIDE
    if rho <= hi:
        return BOUNDARY
    return OUTSIDE


def predict(m: SvddModel, X) -> np.ndarray:
    """LOW for points inside the sphere, HIGH for boundary and outside.

    Boundary points join the majority: the sphere is fitted to the minority
    class, so a point that only just reaches the surface is not called scarce.

    R^2 = diag - 2 acc + self_term is screened with acc from screen_sum, which
    lies within err/64 of the exact loop's (err is 64 times the bound). The
    two additions round in both the screened and the exact R^2, so the two
    differ by at most 2 err/64 plus 4u(|diag| + 2|acc| + |self_term|) to
    first order, u the unit roundoff. err is at least 64·18u·|acc|, so the
    tolerance 2 err + 8u(|diag| + |self_term|) covers both with room to
    spare. A row whose screened R^2 lies within it of lo, or is not finite,
    is re-scored by the exact loop; the rest keep their screened side of lo.
    Every step after the screen runs in place on its n-vectors.
    """
    X = np.asarray(X, dtype=float)
    Xn = normalize_apply(m.norm_stats, X)
    lo, _ = _band(m)
    r2, tol = screen_sum(m.kernel, *_live(m), Xn)
    diag = kernel_diag(m.kernel, Xn)
    r2 *= -2.0          # diag - 2 acc + self_term, added in that order
    r2 += diag
    r2 += m.self_term
    eight_u = 4.0 * np.finfo(float).eps
    tol *= 2.0
    tol += eight_u * abs(m.self_term)
    tol += np.multiply(np.abs(diag, out=diag), eight_u, out=diag)
    with np.errstate(over="ignore"):  # R^2 - lo overflows only far outside the band, keeping its side
        check = ~(np.abs(r2 - lo) > tol)
    if check.any():
        r2[check] = _radius2(m, X[check])
    return np.where(r2 < lo, LOW, HIGH)
