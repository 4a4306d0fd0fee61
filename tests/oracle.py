"""Exact reference solvers for the SVDD and SVM duals, used only by tests.

solve_dual_bruteforce solves the SVDD dual exactly with solve_box_qp, an
interior-point method that also serves as the SVM dual's reference. It
shares no code with the pairwise solver the package trains with.

solve_pairwise is the package's pairwise solver in its plain form: each pass
builds up, low and every temporary afresh. welldesc.smo.solve, which keeps
them in buffers and updates the masks in place, must return its bytes.
"""

import numpy as np

from welldesc.errors import (DimensionMismatch, InfeasibleCost, NonConvergence, NonFiniteInput,
                             WelldescError)
from welldesc.smo import TOL


class OracleScaleExceeded(WelldescError):
    """The reference solver is restricted to small problems by design."""


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


def solve_pairwise(cols, y, p, C: float, a, max_passes: int | None = None):
    """welldesc.smo.solve, one allocation per temporary per pass."""
    kd = cols.diag
    if not np.isfinite(kd).all():
        raise NonFiniteInput("kernel values on the training rows are not finite: "
                             "the kernel overflows, or a row holds a NaN or an inf")
    if max_passes is None:
        max_passes = 10 * y.size * y.size
    hi = np.where(y > 0, C, 0.0)
    lo = hi - C
    z = y * a
    v = -y * p - cols.dot(z)
    viol = np.inf
    for it in range(max_passes):
        up, low = z < hi, z > lo
        i = int(np.argmax(np.where(up, v, -np.inf)))
        viol = v[i] - v[int(np.argmin(np.where(low, v, np.inf)))]
        if viol <= TOL:
            return y * z, v, up, low

        gap = v[i] - v
        Ki = cols.col(i)
        curv = np.maximum(kd[i] + kd - 2.0 * Ki, 1e-12)
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curv, -np.inf)))

        room_i, room_j = hi[i] - z[i], z[j] - lo[j]
        room = min(room_i, room_j)
        quad = kd[i] + kd[j] - 2.0 * Ki[j]
        delta = room if quad <= 0.0 else min(room, gap[j] / quad)
        if delta <= 0.0:
            return y * z, v, up, low  # box leaves no feasible motion
        if delta >= room:
            # land exactly on whichever bound binds
            if room_i <= room_j:
                z[j] -= room_i
                z[i] = hi[i]
            else:
                z[i] += room_j
                z[j] = lo[j]
            delta = room
        else:
            z[i] += delta
            z[j] -= delta
        v -= delta * (Ki - cols.col(j))
        if (it + 1) % 1024 == 0:
            v = -y * p - cols.dot(z)  # shed incremental rounding

    raise NonConvergence(
        f"pairwise solver still violating KKT by {viol:.3e} after {max_passes} passes",
        kkt_violation=float(viol))
