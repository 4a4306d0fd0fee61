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
y_i = 1. solve_dual_bruteforce is an independent reference for tests: it
solves the same problem exactly with solve_box_qp, an interior-point method
that also serves as the SVM dual's reference.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, NormStats, normalize_apply
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InfeasibleCost,
    NonConvergence,
    OracleScaleExceeded,
)
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
    X = np.asarray(X, dtype=float)
    d = m.X_train.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"expected a 2-d query matrix of {d} features, got shape {X.shape}")
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


# Iteration cap of solve_box_qp. Random SVDD and SVM duals of up to 30
# points, near-singular and duplicate-row Grams among them, need at most 15
# iterations, so the cap only stops a runaway.
_QP_MAX_ITER = 50
_QP_TOL = 1e-12
_QP_STEP = 0.995    # fraction of the step to the boundary that is taken


def solve_box_qp(Q, p, y, c: float, C: float) -> np.ndarray:
    """Minimize 1/2 a'Qa + p'a subject to y'a = c and 0 <= a <= C.

    Mehrotra's predictor-corrector interior-point method (Mehrotra, SIAM J.
    Optim. 1992; Nocedal & Wright, Numerical Optimization, ch. 16). Q must be
    symmetric positive semidefinite. Each iteration factors
    H = Q + diag(z_l/a + z_u/(C - a)) once by Cholesky, where z_l and z_u are
    the multipliers of the two bounds, and takes the equality multiplier's
    step from the scalar Schur complement y'H^-1 y. Iterates stay strictly
    inside the box. Raises NonConvergence rather than return a point whose
    residuals and duality gap are not all within _QP_TOL of zero.
    """
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    n = p.size
    C = float(C)
    a = np.full(n, 0.5 * C)
    zl = np.ones(n)
    zu = np.ones(n)
    lam = 0.0
    dual_scale = 1.0 + max(float(np.abs(Q).max()), float(np.abs(p).max()))

    def longest(da, dzl, dzu):
        # largest t keeping a + t da, C - a - t da and z + t dz positive
        t = np.inf
        for v, dv in ((a, da), (C - a, -da), (zl, dzl), (zu, dzu)):
            neg = dv < 0.0
            if neg.any():
                t = min(t, float(np.min(-v[neg] / dv[neg])))
        return t

    for it in range(_QP_MAX_ITER + 1):
        s = C - a
        rd = Q @ a + p - lam * y - zl + zu
        rp = float(y @ a) - c
        mu = float(a @ zl + s @ zu) / (2 * n)
        viol = max(float(np.abs(rd).max()) / dual_scale, abs(rp) / (1.0 + abs(c)),
                   mu / (dual_scale * max(1.0, C)))
        if viol <= _QP_TOL:
            return a
        if it == _QP_MAX_ITER:
            raise NonConvergence(
                f"interior-point solver did not converge in {_QP_MAX_ITER} iterations",
                kkt_violation=viol)
        try:
            L = np.linalg.cholesky(Q + np.diag(zl / a + zu / s))
        except np.linalg.LinAlgError:
            raise NonConvergence("interior-point system lost positive definiteness",
                                 kkt_violation=viol) from None

        def solve(r):
            return np.linalg.solve(L.T, np.linalg.solve(L, r))

        Hy = solve(y)
        yHy = float(y @ Hy)

        def direction(cl, cu):
            # Newton step on the KKT system with the complementarity
            # residuals a*z_l - target = cl and (C - a)*z_u - target = cu
            v = solve(-rd - cl / a + cu / s)
            dlam = (-rp - float(y @ v)) / yHy
            da = v + dlam * Hy
            return da, dlam, (-cl - zl * da) / a, (zu * da - cu) / s

        # predictor: the pure Newton (affine-scaling) step
        da, _, dzl, dzu = direction(a * zl, s * zu)
        t = min(1.0, longest(da, dzl, dzu))
        mu_aff = float((a + t * da) @ (zl + t * dzl) + (s - t * da) @ (zu + t * dzu)) / (2 * n)
        target = (mu_aff / mu) ** 3 * mu
        # corrector: recentre toward target, with the predictor's second-order terms
        da, dlam, dzl, dzu = direction(a * zl + da * dzl - target, s * zu - da * dzu - target)
        t = min(1.0, _QP_STEP * longest(da, dzl, dzu))
        a = a + t * da
        lam += t * dlam
        zl = zl + t * dzl
        zu = zu + t * dzu


def solve_dual_bruteforce(K, C: float) -> np.ndarray:
    """Reference maximizer of the dual L(a), for tests.

    Deliberately shares no code with the pairwise solver: it hands
    min 1/2 a'(2K)a - diag(K)'a, sum a = 1, 0 <= a <= C to the
    interior-point solve_box_qp, which meets the optimality conditions to
    1e-12. Restricted to n <= 30.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise DimensionMismatch(f"expected a square kernel matrix, got {K.shape}")
    if n > 30:
        raise OracleScaleExceeded(f"reference solver capped at n=30, got n={n}")
    C = float(C)
    if C < 1.0 / n - 1e-12 or C > 1.0 + 1e-12:
        raise InfeasibleCost(f"C={C} outside [1/n, 1] for n={n}")
    if n == 1:
        return np.ones(1)
    return solve_box_qp(2.0 * K, -K.diagonal(), np.ones(n), 1.0, C)


def dual_objective(K, alphas) -> float:
    """L(a) = sum_i a_i K_ii - sum_ij a_i a_j K_ij."""
    K = np.asarray(K, dtype=float)
    a = np.asarray(alphas, dtype=float)
    return float(K.diagonal() @ a - a @ K @ a)
