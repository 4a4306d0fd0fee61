"""Pairwise (SMO) solver shared by the hypersphere and the kernel SVM.

Both duals are instances of

    minimize  f(a) = 1/2 a'Qa + p'a
    subject to  y'a = const,  0 <= a_i <= C,   Q_ij = y_i y_j K_ij,  y_i = +-1

(Fan, Chen & Lin, JMLR 2005). The solver works in z = y * a, whose bounds
are [0, C] where y_i = 1 and [-C, 0] where y_i = -1, and in v = -y * grad f,
so Q is never formed: moving z_i up by t and z_j down by t keeps y'a fixed
and changes v by -t (K[:, i] - K[:, j]).
"""

import numpy as np

from .errors import NonConvergence


def solve(K, y, p, C: float, a, tol: float, max_passes: int):
    """Minimize f from the feasible start a; return (a, v, up, low).

    up and low mask the indices whose z_i can still rise and fall. Each pass
    takes the most violating i in up and pairs it with the j in low promising
    the largest guaranteed gain (gap squared over curvature; a first-order
    pick zigzags on near-singular Grams), takes the optimal step along the
    pair, and lands exactly on a bound it reaches. Ties pick the lowest
    index, so the result is deterministic. Stops when
    max(v over up) - min(v over low) <= tol.
    """
    hi = np.where(y > 0, C, 0.0)
    lo = hi - C
    z = y * a
    kd = K.diagonal().copy()
    v = -y * p - K @ z
    viol = np.inf
    for it in range(max_passes):
        up, low = z < hi, z > lo
        i = int(np.argmax(np.where(up, v, -np.inf)))
        viol = v[i] - v[int(np.argmin(np.where(low, v, np.inf)))]
        if viol <= tol:
            return y * z, v, up, low

        gap = v[i] - v
        curv = np.maximum(kd[i] + kd - 2.0 * K[:, i], 1e-12)
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curv, -np.inf)))

        room_i, room_j = hi[i] - z[i], z[j] - lo[j]
        room = min(room_i, room_j)
        quad = kd[i] + kd[j] - 2.0 * K[i, j]
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
        v -= delta * (K[:, i] - K[:, j])
        if (it + 1) % 1024 == 0:
            v = -y * p - K @ z  # shed incremental rounding

    raise NonConvergence(
        f"pairwise solver still violating KKT by {viol:.3e} after {max_passes} passes",
        kkt_violation=float(viol))
