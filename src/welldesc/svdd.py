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
y_i = 1. solve_dual_bruteforce is an independent reference for tests.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, NormStats, normalize_apply
from .errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InfeasibleCost,
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
    kkt_tol: float = 1e-6
    max_passes: int | None = None   # default 10 * n^2, set at train time
    boundary_tol: float = 1e-7      # relative band half-width for decide()


@dataclass
class SvddModel:
    X_train: np.ndarray      # stored target vectors, already normalized
    alphas: np.ndarray
    kernel: KernelSpec
    C: float
    r2: float
    self_term: float         # sum_ij a_i a_j K_ij, cached for scoring
    norm_stats: NormStats
    kkt_tol: float = 1e-6
    boundary_tol: float = 1e-7


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
    # -L(a) = 1/2 a'(2G)a - diag(G)'a; scaling by 2 in place is exact and
    # spares a second n x n matrix
    p = -G.diagonal()
    G *= 2.0
    alphas = smo.solve(G, np.ones(n), p, C, np.full(n, 1.0 / n), cfg.kkt_tol, max_passes)[0]
    G *= 0.5

    Ka = G @ alphas
    self_term = float(alphas @ Ka)
    r2_each = G.diagonal() - 2.0 * Ka + self_term
    unbounded = (alphas > cfg.kkt_tol) & (alphas < C - cfg.kkt_tol)
    if unbounded.any():
        r2 = float(r2_each[unbounded].max())
    else:
        positive = alphas > cfg.kkt_tol
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
        kkt_tol=cfg.kkt_tol,
        boundary_tol=cfg.boundary_tol,
    )


def _radius2(m: SvddModel, X) -> np.ndarray:
    """R^2 of every row of a raw-space query block.

    Only vectors with nonzero weight contribute, each added into one
    accumulator over the whole block, so memory stays O(rows) however many
    vectors the model has.
    """
    X = np.asarray(X, dtype=float)
    d = m.X_train.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"expected a 2-d query matrix of {d} features, got shape {X.shape}")
    Xn = normalize_apply(m.norm_stats, X)
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


def _project_capped_simplex(v: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection onto {a : sum a = 1, 0 <= a <= C}.

    The projection is clip(v - t, 0, C) for the shift t that makes the sum 1.
    The sum is piecewise linear and nonincreasing in t, so t is found exactly
    from the breakpoints.
    """
    pts = np.unique(np.concatenate([v - C, v]))
    sums = np.clip(v[np.newaxis, :] - pts[:, np.newaxis], 0.0, C).sum(axis=1)
    k = int(np.flatnonzero(sums >= 1.0)[-1])
    if sums[k] == 1.0 or k + 1 == pts.size:
        t = pts[k]
    else:
        mid = 0.5 * (pts[k] + pts[k + 1])
        shifted = v - mid
        n_hi = int(np.count_nonzero(shifted >= C))
        free = (shifted > 0.0) & (shifted < C)
        n_free = int(np.count_nonzero(free))
        if n_free == 0:
            t = mid  # the sum is flat and already equals 1 on this segment
        else:
            t = (C * n_hi + float(v[free].sum()) - 1.0) / n_free
    return np.clip(v - t, 0.0, C)


def solve_dual_bruteforce(K, C: float, max_iter: int = 1_000_000) -> np.ndarray:
    """Reference solver: projected-gradient ascent on the capped simplex.

    Deliberately shares no code with the pairwise solver. Starts from the
    uniform point, takes a diminishing projection step with an exact line
    search along each projected direction, and returns the best iterate seen.
    Restricted to n <= 30.
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

    a = np.full(n, 1.0 / n)
    if n == 1:
        return a
    diag = K.diagonal().copy()

    def objective(vec):
        return float(diag @ vec - vec @ K @ vec)

    lam = float(np.linalg.eigvalsh(K)[-1])
    base = 1.0 / (2.0 * lam) if lam > 0.0 else 1.0
    take = np.minimum(C, np.maximum(0.0, 1.0 - C * np.arange(n)))
    best_f = objective(a)
    best_a = a.copy()
    stall = 0
    for it in range(max_iter):
        g = diag - 2.0 * (K @ a)
        # concavity gives f* - f(a) <= max over feasible z of g.(z - a); the
        # maximizer greedily stacks mass C on the largest gradients. The bound
        # is loose when K is near singular, so a stagnation window backs it up.
        bound = float(np.sort(g)[::-1] @ take) - float(g @ a)
        if bound <= 1e-10 * max(1.0, abs(best_f)):
            break
        step = base / (1.0 + it / 65536.0)
        d = _project_capped_simplex(a + step * g, C) - a
        if float(np.max(np.abs(d))) < 1e-15:
            break
        gd = float(g @ d)
        dKd = float(d @ K @ d)
        t = 1.0 if dKd <= 0.0 else min(1.0, gd / (2.0 * dKd))
        if t <= 0.0:
            break
        a = a + t * d
        f = objective(a)
        if f > best_f + 1e-11 * max(1.0, abs(best_f)):
            best_f, best_a, stall = f, a.copy(), 0
        else:
            if f > best_f:
                best_f, best_a = f, a.copy()
            stall += 1
            if stall >= 1024:   # creeping below 1e-11 relative per step
                break
    return best_a


def dual_objective(K, alphas) -> float:
    """L(a) = sum_i a_i K_ii - sum_ij a_i a_j K_ij."""
    K = np.asarray(K, dtype=float)
    a = np.asarray(alphas, dtype=float)
    return float(K.diagonal() @ a - a @ K @ a)
