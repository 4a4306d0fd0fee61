"""Pairwise (SMO) solver shared by the hypersphere and the kernel SVM.

Both duals are instances of

    minimize  f(a) = 1/2 a'Qa + p'a
    subject to  y'a = const,  0 <= a_i <= C,   Q_ij = y_i y_j K_ij,  y_i = +-1

(Fan, Chen & Lin, JMLR 2005). The solver works in z = y * a, whose bounds
are [0, C] where y_i = 1 and [-C, 0] where y_i = -1, and in v = -y * grad f,
so Q is never formed: moving z_i up by t and z_j down by t keeps y'a fixed
and changes v by -t (K[:, i] - K[:, j]).

K itself is never formed by the solver either. It reads K through a column
source with three parts: `diag`, the diagonal as an array; `col(i)`, column
i; and `dot(z)`, the product K @ z, taken at the start and every 1024 passes.
A source may compute columns on demand and forget them again (the SVM's
kernel cache in `welldesc.baselines`), or hold K whole (`Dense`).
"""

import numpy as np

from .errors import NonConvergence, NonFiniteInput

TOL = 1e-6  # the stopping gap; both trainers also read a multiplier within TOL of a bound as on it


class Dense:
    """Column source over a symmetric matrix held whole.

    col(i) returns row i, which is contiguous and, K being symmetric, equal
    to column i.
    """

    def __init__(self, K: np.ndarray):
        self.K = K
        self.diag = K.diagonal().copy()

    def col(self, i: int) -> np.ndarray:
        return self.K[i]

    def dot(self, z: np.ndarray) -> np.ndarray:
        return self.K @ z


def solve(cols, y, p, C: float, a, max_passes: int | None = None):
    """Minimize f from the feasible start a; return (a, v, up, low).

    cols is the column source of K (see the module docstring). up and low
    mask the indices whose z_i can still rise and fall. Each pass takes the
    most violating i in up and pairs it with the j in low promising the
    largest guaranteed gain (gap squared over curvature; a first-order pick
    zigzags on near-singular Grams), takes the optimal step along the pair,
    and lands exactly on a bound it reaches. A pass reads columns i and j
    only. Ties pick the lowest index, so the result is deterministic. Stops
    when max(v over up) - min(v over low) <= TOL and raises NonConvergence
    after max_passes passes (None: 10 n^2). A kernel diagonal holding an inf
    or a NaN raises NonFiniteInput first; for a positive semidefinite K,
    |K_ij| <= sqrt(K_ii K_jj), so a finite diagonal bounds every entry.
    """
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
    # up and low, the indices whose z can still rise and fall, kept as
    # additive masks: 0 where the index is free, -inf (up) or +inf (low)
    # where it is not. They change only where z does, at i and j. The masked
    # argmax and argmin of v are then one add each; v is finite, K's diagonal
    # being finite, so adding 0 leaves it as it is.
    up_off, low_off = np.where(z < hi, 0.0, -np.inf), np.where(z > lo, 0.0, np.inf)
    masked, gap, curv, gain, diff = (np.empty_like(v) for _ in range(5))
    excluded = np.empty(v.size, dtype=bool)
    viol = np.inf
    for it in range(max_passes):
        i = int(np.add(v, up_off, out=masked).argmax())
        vi = v[i]
        viol = vi - v[int(np.add(v, low_off, out=masked).argmin())]
        if viol <= TOL:
            return y * z, v, up_off == 0.0, low_off == 0.0

        np.subtract(vi, v, out=gap)
        Ki = cols.col(i)
        np.add(kd[i], kd, out=curv)
        curv -= np.multiply(Ki, 2.0, out=diff)
        np.maximum(curv, 1e-12, out=curv)
        # masked still holds v over low and +inf elsewhere, so the j in low
        # with gap > 0 are exactly those where masked < vi
        np.greater_equal(masked, vi, out=excluded)
        np.multiply(gap, gap, out=gain)
        gain /= curv
        np.putmask(gain, excluded, -np.inf)
        j = int(gain.argmax())

        # the step's scalars as Python floats: the same IEEE arithmetic as
        # numpy's scalars, at a fraction of the call cost
        room_i, room_j = hi.item(i) - z.item(i), z.item(j) - lo.item(j)
        room = min(room_i, room_j)
        quad = kd.item(i) + kd.item(j) - 2.0 * Ki.item(j)
        delta = room if quad <= 0.0 else min(room, gap.item(j) / quad)
        if delta <= 0.0:
            return y * z, v, up_off == 0.0, low_off == 0.0  # box leaves no feasible motion
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
        np.subtract(Ki, cols.col(j), out=diff)
        diff *= delta
        v -= diff
        for k in (i, j):
            zk = z.item(k)
            up_off[k] = 0.0 if zk < hi.item(k) else -np.inf
            low_off[k] = 0.0 if zk > lo.item(k) else np.inf
        if (it + 1) % 1024 == 0:
            v = -y * p - cols.dot(z)  # shed incremental rounding

    raise NonConvergence(
        f"pairwise solver still violating KKT by {viol:.3e} after {max_passes} passes",
        kkt_violation=float(viol))
