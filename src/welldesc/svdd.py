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
"""

from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, NormStats, normalize_apply
from .errors import DimensionMismatch, EmptyTrainingSet, InfeasibleCost
from . import smo
from .kernels import KernelSpec, gram, kernel_diag, kernel_row
from .kernels import eval_kernel  # noqa: F401  only for perfbench/spans.py

INSIDE = "inside"
BOUNDARY = "boundary"
OUTSIDE = "outside"


@dataclass
class SvddTrainConfig:
    kernel: KernelSpec
    C: float = 1.0
    max_passes: int | None = None   # default 10 * n^2, set at train time


@dataclass
class SvddModel:
    X_train: np.ndarray      # stored target vectors, already normalized
    alphas: np.ndarray
    kernel: KernelSpec
    C: float
    r2: float
    self_term: float         # sum_ij a_i a_j K_ij, cached for scoring
    norm_stats: NormStats
    kkt_tol = 1e-6           # not a field: the solver's stopping gap, the same for every model
    boundary_tol = 1e-7      # not a field: relative half-width of decide()'s boundary band


def _self_term(G: np.ndarray, alphas: np.ndarray) -> float:
    return float(alphas @ (G @ alphas))


def train(X_target, cfg: SvddTrainConfig, norm_stats: NormStats | None = None) -> SvddModel:
    """Fit the hypersphere to one class of training vectors.

    norm_stats defaults to the identity; pass stats fitted on the training
    rows to bake z-scoring into the model.
    """
    X = np.asarray(X_target, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d sample matrix, got shape {X.shape}")
    n = X.shape[0]
    if n == 0:
        raise EmptyTrainingSet("no target vectors")
    C = float(cfg.C)
    if C < 1.0 / n - 1e-12 or C > 1.0 + 1e-12:
        raise InfeasibleCost(f"C={C} outside [1/n, 1] for n={n}")

    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    Xn = normalize_apply(stats, X)
    G = gram(cfg.kernel, Xn)
    max_passes = cfg.max_passes if cfg.max_passes is not None else 10 * n * n
    tol = SvddModel.kkt_tol
    # -L(a) = 1/2 a'(2G)a - diag(G)'a; scaling by 2 in place is exact and
    # spares a second n x n matrix
    p = -G.diagonal()
    G *= 2.0
    alphas = smo.solve(smo.Dense(G), np.ones(n), p, C, np.full(n, 1.0 / n),
                       tol, max_passes)[0]
    G *= 0.5

    Ka = G @ alphas
    self_term = float(alphas @ Ka)
    r2_each = G.diagonal() - 2.0 * Ka + self_term
    unbounded = (alphas > tol) & (alphas < C - tol)
    if unbounded.any():
        r2 = float(r2_each[unbounded].max())
    else:
        positive = alphas > tol
        r2 = float(r2_each[positive].max()) if positive.any() else 0.0
    r2 = max(r2, 0.0)

    return SvddModel(
        X_train=Xn,
        alphas=alphas,
        kernel=cfg.kernel,
        C=C,
        r2=r2,
        self_term=self_term,
        norm_stats=stats,
    )


def _radius2(m: SvddModel, X) -> np.ndarray:
    """R^2 of every row of a raw-space query block.

    Only vectors with nonzero weight contribute, each added into one
    accumulator over the whole block, so memory stays O(rows) however many
    vectors the model has. The block is normalized into Fortran order, so
    each kernel_row reads it feature-major and contiguous.
    """
    Xn = np.asfortranarray(normalize_apply(m.norm_stats, X))
    acc = np.zeros(Xn.shape[0])
    live = m.alphas != 0.0
    for a, sv in zip(m.alphas[live], m.X_train[live]):
        acc += a * kernel_row(m.kernel, sv, Xn)
    return kernel_diag(m.kernel, Xn) - 2.0 * acc + m.self_term


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
    """
    lo, _ = _band(m)
    return np.where(_radius2(m, X) < lo, LOW, HIGH)
