"""Pairwise (SMO) solver shared by the hypersphere and the kernel SVM.

Both duals are instances of

    minimize  f(a) = 1/2 a'Qa + p'a
    subject to  y'a = const,  0 <= a_i <= C,   Q_ij = y_i y_j K_ij,  y_i = +-1

(Fan, Chen & Lin, JMLR 2005). The solver works in z = y * a, whose bounds
are [0, C] where y_i = 1 and [-C, 0] where y_i = -1, and in v = -y * grad f,
so Q is never formed: moving z_i up by t and z_j down by t keeps y'a fixed
and changes v by -t (K[:, i] - K[:, j]).

K itself is never formed by the solver either. It reads K through a column
source with four parts: `diag`, the diagonal as an array; `col(i)`, column
i; `curv(i)`, the pick's curvatures max(K_ii + K_kk - 2 K_ik, 1e-12) over k,
as `curvature` computes them; and `dot(z)`, the product K @ z, taken at the
start and every 1024 passes. A source may compute columns and curvatures on
demand and forget them again (the SVM's kernel cache in
`welldesc.baselines`), or hold K whole and keep each working index's
curvatures once computed (`Dense`). The solver only reads what col and curv
return.

A pass picks j by the second-order rule from the gap it already holds:
v_i - v over the indices that can fall and -inf elsewhere, so that
|gap| gap / curvature is the rule's gain where it applies and <= 0, -inf or
NaN everywhere else. Only when that gain peaks at no positive value (gains
that fall to 0, an inf or NaN curvature) does the pass mask the gain
explicitly (_pick_in_low). Either way j is the rule's first maximum, bit for
bit.
"""

import numpy as np

from .errors import InvalidConfig, NonConvergence, NonFiniteInput

TOL = 1e-6  # the stopping gap; free() reads a multiplier within TOL of a bound as on it


def free(a: np.ndarray, C: float) -> np.ndarray:
    """Mask of the multipliers off both bounds of [0, C] by more than TOL."""
    return (a > TOL) & (a < C - TOL)


def check_passes(max_passes: int | None) -> None:
    """InvalidConfig unless max_passes is None (the default cap) or at least 1."""
    if max_passes is not None and max_passes < 1:
        raise InvalidConfig(f"max_passes must be at least 1, got {max_passes}")


def curvature(diag: np.ndarray, i: int, Ki: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
    """max(K_ii + K_kk - 2 K_ik, 1e-12) over k, into out; scratch is overwritten."""
    np.add(diag.item(i), diag, out=out)
    out -= np.multiply(Ki, 2.0, out=scratch)
    return np.maximum(out, 1e-12, out=out)


class Dense:
    """Column source over a symmetric matrix held whole.

    col(i) returns row i, which is contiguous and, K being symmetric, equal
    to column i. curv(i) is computed on the first call for i and kept: a
    solve revisits few working indices, so this holds a few n-vectors, and
    never more than K itself.
    """

    def __init__(self, K: np.ndarray):
        self.K = K
        self.diag = K.diagonal().copy()
        self.curvs = {}

    def col(self, i: int) -> np.ndarray:
        return self.K[i]

    def curv(self, i: int) -> np.ndarray:
        c = self.curvs.get(i)
        if c is None:
            c = self.curvs[i] = curvature(self.diag, i, self.K[i], np.empty_like(self.diag),
                                          np.empty_like(self.diag))
        return c

    def dot(self, z: np.ndarray) -> np.ndarray:
        return self.K @ z


def solve(cols, y, p, C: float, a, max_passes: int | None = None):
    """Minimize f from the feasible start a; return (a, v, up, low).

    cols is the column source of K (see the module docstring). up and low
    mask the indices whose z_i can still rise and fall. Each pass takes the
    most violating i in up and pairs it with the j in low promising the
    largest guaranteed gain (gap squared over curvature; a first-order pick
    zigzags on near-singular Grams), takes the optimal step along the pair,
    and lands exactly on a bound it reaches. The gain is read as
    |gap| gap / curvature off the masked gap, which scores every other index
    <= 0, -inf or NaN; a pass whose gain does not peak above 0 picks again
    with the other indices masked to -inf (_pick_in_low). A pass reads
    columns i and j and i's curvatures only, and its scalar step runs on
    Python floats. Ties pick the lowest index, so the result is
    deterministic. Stops when max(v over up) - min(v over low) <= TOL and
    raises NonConvergence after max_passes passes (None: 10 n^2; a cap
    below 1 is refused first, by check_passes). A kernel
    diagonal holding an inf or a NaN raises NonFiniteInput first; for a
    positive semidefinite K, |K_ij| <= sqrt(K_ii K_jj), so a finite diagonal
    bounds every entry.
    """
    check_passes(max_passes)
    kd = cols.diag
    if not np.isfinite(kd).all():
        raise NonFiniteInput("kernel values on the training rows are not finite: "
                             "the kernel overflows, or a row holds a NaN or an inf")
    if max_passes is None:
        max_passes = 10 * y.size * y.size
    hi = np.where(y > 0, C, 0.0)
    lo = hi - C
    # the step reads these per index as Python floats: the same IEEE
    # arithmetic as numpy's scalars, at a fraction of the call cost
    hi_at, lo_at, kd_at = hi.tolist(), lo.tolist(), kd.tolist()
    z = y * a
    v = -y * p - cols.dot(z)
    # up and low, the indices whose z can still rise and fall, kept as
    # additive masks: 0 where the index is free, -inf (up) or +inf (low)
    # where it is not. They change only where z does, at i and j. The masked
    # argmax and argmin of v are then one add each; v is finite, K's diagonal
    # being finite, so adding 0 leaves it as it is.
    up_off, low_off = np.where(z < hi, 0.0, -np.inf), np.where(z > lo, 0.0, np.inf)
    masked, gap, gain, diff = (np.empty_like(v) for _ in range(4))
    viol = np.inf
    for it in range(max_passes):
        i = int(np.add(v, up_off, out=masked).argmax())
        vi = v.item(i)
        viol = vi - v.item(int(np.add(v, low_off, out=masked).argmin()))
        if viol <= TOL:
            return y * z, v, up_off == 0.0, low_off == 0.0

        # masked still holds v over low and +inf elsewhere, so gap is
        # v_i - v_k over low and -inf elsewhere, and |gap| gap / curv is the
        # pick's gain gap^2 / curv where k is in low with gap > 0, and <= 0,
        # -inf or NaN everywhere else
        np.subtract(vi, masked, out=gap)
        Ki, curv = cols.col(i), cols.curv(i)
        np.multiply(np.abs(gap, out=gain), gap, out=gain)
        gain /= curv
        j = int(gain.argmax())
        if not gain.item(j) > 0.0:
            j = _pick_in_low(gap, curv, masked, vi, gain)

        zi, zj = z.item(i), z.item(j)
        room_i, room_j = hi_at[i] - zi, zj - lo_at[j]
        room = min(room_i, room_j)
        quad = kd_at[i] + kd_at[j] - 2.0 * Ki.item(j)
        delta = room if quad <= 0.0 else min(room, gap.item(j) / quad)
        if delta <= 0.0:
            return y * z, v, up_off == 0.0, low_off == 0.0  # box leaves no feasible motion
        if delta >= room:
            # land exactly on whichever bound binds
            if room_i <= room_j:
                zi, zj = hi_at[i], zj - room_i
            else:
                zi, zj = zi + room_j, lo_at[j]
            delta = room
        else:
            zi, zj = zi + delta, zj - delta
        z[i], z[j] = zi, zj
        up_off[i] = 0.0 if zi < hi_at[i] else -np.inf
        low_off[i] = 0.0 if zi > lo_at[i] else np.inf
        up_off[j] = 0.0 if zj < hi_at[j] else -np.inf
        low_off[j] = 0.0 if zj > lo_at[j] else np.inf
        np.subtract(Ki, cols.col(j), out=diff)
        diff *= delta
        v -= diff
        if (it + 1) % 1024 == 0:
            v = -y * p - cols.dot(z)  # shed incremental rounding

    raise NonConvergence(
        f"pairwise solver still violating KKT by {viol:.3e} after {max_passes} passes",
        kkt_violation=float(viol))


def _pick_in_low(gap, curv, masked, vi, gain) -> int:
    """The pick's j over the k in low with gap > 0 alone, for a pass whose
    masked-gap gain peaks at no positive value.

    That happens when every such gain falls to 0 (gap^2 over an inf
    curvature), or a curvature is NaN (an inf - inf): the masked-gap gain
    then reads 0, -inf / inf = NaN or NaN outside those k, and argmax takes
    the first NaN wherever it lies.
    Here every other k reads -inf, so j is the first maximum, or the first
    NaN, among those k: the rule's own choice.
    """
    np.multiply(gap, gap, out=gain)
    gain /= curv
    np.putmask(gain, masked >= vi, -np.inf)
    return int(gain.argmax())
