"""Relief feature weighting for binary-labeled samples.

Weights reward features that separate a point from its nearest neighbor of
the other class (miss) and penalize ones that separate it from its nearest
neighbor of the same class (hit). Features are min-max scaled to [0, 1]
internally, per Relief's diff convention; the weights depend only on feature
rank geometry, not on units.

The nearest-neighbor search is split by class and done in blocks: a class's
rows are queried against that class's own rows for hits and against every
other row for misses, a block of query rows at a time, so no row-level mask
is built and the temporary memory stays bounded whatever the row count.
Each block is screened with one float32 matrix product, ‖c‖² − 2q·c, whose
rounding error has a bound derived in _nearest. A row whose best and
second-best screen values lie within that bound is re-checked with the exact
distance the per-row pass uses, over every candidate within the bound, and
the first minimum wins. The weight vector adds the per-row terms one after
another in row order, so the weights equal those of the plain
one-row-at-a-time pass bit for bit.
"""

import numpy as np

from .errors import ConstantAllFeatures, DimensionMismatch, InvalidK, NonFiniteInput, SingleClassInput

# Query×candidate entries in one screen block: 0.5 MB of float32, however
# many rows the input has.
_BLOCK_ENTRIES = 131072


def relief_weights(X, y) -> np.ndarray:
    """Weight of each feature from one deterministic full pass over the
    rows, in index order.

    Nearest hit and miss are found by Euclidean distance on the scaled
    features; ties go to the lowest row index. A constant feature scores
    exactly 0. A row whose class has no second member contributes only its
    miss term. A NaN or infinite cell, or a NaN label, raises NonFiniteInput.

    The search runs per class, on the calling thread, in blocks of
    ``max(1, 131072 // m)`` query rows against m candidates, so each float32
    block holds about 0.5 MB. A float32 GEMM screen ranks the candidates;
    any candidate the screen cannot tell from the best within its rounding
    bound is re-measured in float64 as ``sqrt(sum((x - c)**2))``, the
    per-row pass's own expression. W adds ``-hit_0, +miss_0, -hit_1, ...``
    left to right; the weights are therefore bit-identical to a per-row
    loop, whatever the BLAS kernel.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatch(f"X {X.shape} does not match y {y.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("X has NaN or infinite cells; relief needs finite features")
    n, d = X.shape
    classes = _classes(y)
    if (classes != classes).any():
        raise NonFiniteInput("y has a NaN label; relief needs labels equal to themselves")
    if classes.size < 2:
        raise SingleClassInput("relief needs both classes present")

    vmin = X.min(axis=0)
    spread = X.max(axis=0) - vmin
    if not (spread > 0).any():
        raise ConstantAllFeatures("every feature is constant")
    S = (X - vmin) / np.where(spread > 0, spread, 1.0)

    # A row whose class has no second member keeps itself as its hit: its
    # term is -0.0, which leaves every partial sum of W unchanged.
    hit = np.arange(n)
    miss = np.empty(n, dtype=np.intp)
    for c in classes:
        own = np.flatnonzero(y == c)
        other = np.flatnonzero(y != c)
        S_own = S[own]
        if own.size > 1:
            hit[own] = own[_nearest(S_own, S_own, skip_self=True)]
        miss[own] = other[_nearest(S_own, S[other])]

    # Row 0 is W's zero start; row 2i+1 is -|hit_i - x_i|, row 2i+2 is
    # |miss_i - x_i|. accumulate adds strictly in row order, unlike reduce,
    # which may sum a contiguous column pairwise.
    terms = np.zeros((2 * n + 1, d))
    for t, near in ((terms[1::2], hit), (terms[2::2], miss)):
        np.abs(np.subtract(S[near], S, out=t), out=t)
    np.negative(terms[1::2], out=terms[1::2])
    return np.add.accumulate(terms, axis=0, out=terms)[-1] / n


def _classes(y):
    """The sorted distinct labels of 1-D y, as np.unique(y) gives them, found
    as its sort path finds them, without the numpy.ma import np.unique pays on
    first use. A NaN label is kept, once per NaN."""
    s = np.sort(y)
    keep = np.ones(s.shape, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _nearest(Q, C, skip_self=False):
    """Position in the candidate rows C of each query row's nearest one.

    With ``skip_self`` the queries are the candidates themselves and query i
    never matches candidate i. Ties go to the lowest position, and the
    distance that decides is the per-row pass's, bit for bit.

    All values lie in [0, 1], so ‖c‖² ≤ d. The screen s = ‖c‖² − 2q·c is one
    float32 product of the (d+1)-vectors [−2q, 1] and [c, ‖c‖²], with u the
    float32 unit roundoff (2⁻²⁴), to first order in u:

    - rounding −2q and c to float32 moves each of the d terms 2q_k·c_k by at
      most 4u, so 4d·u in all; ‖c‖², summed in float64 and then rounded,
      moves by at most d·u (the float64 sum's d²·2⁻⁵³ is left to tol);
    - the d rounded terms are at most 2 in magnitude and ‖c‖² at most d, so
      the product adds at most γ_{d+1}·3d = 3d(d+1)·u in any BLAS order
      (Higham 2002, §3.1);
    - where a value underflows, float32 rounding is off by up to 2⁻¹⁵⁰ at
      most: an underflowing −2q_k moves its term by that, c_k by twice that,
      and ‖c‖² and each of the d products by that, (4d+1)·2⁻¹⁵⁰ in all.

    So s lies within e = (3d(d+1) + 5d)·u + (4d+1)·2⁻¹⁵⁰ of the exact
    ‖q − c‖² − ‖q‖², and two candidates' screens differ by at most 2e more
    than their exact squared distances do. ``tol`` is 4 times that 2e. The
    rest of the multiple covers the terms of second order in u, the float64
    roundings (‖c‖²'s sum, and the per-row pass's sum of squares and square
    root: under 3(d+2)d·2⁻⁵³ per candidate, far below e) and the float32
    rounding of the threshold lo + tol (at most (2d + tol)·u). The true
    nearest row therefore lies within tol of the screen's minimum: the
    screened-in candidates are re-measured as the per-row pass measures
    them, and the first minimum wins. A row with no second candidate that
    close keeps the screen's argmin, which then is the exact one.

    The queries go in blocks of ``max(1, _BLOCK_ENTRIES // m)`` rows, each
    built in one float32 [−2q, 1] buffer and screened into one float32
    block buffer, so the loop allocates nothing the size of a block.
    """
    m, d = C.shape
    # Candidates feature-major (C order) with ‖c‖² as a last row, so each
    # product streams along m.
    CA = np.empty((d + 1, m), dtype=np.float32)
    CA[:d] = C.T
    CA[d] = np.square(C).sum(axis=1)
    e = (3 * d * (d + 1) + 5 * d) * 2.0**-24 + (4 * d + 1) * 2.0**-150
    tol = 4 * 2 * e
    n = len(Q)
    rows = min(n, max(1, _BLOCK_ENTRIES // m))
    qa = np.empty((rows, d + 1), dtype=np.float32)
    qa[:, d] = 1.0
    s = np.empty((rows, m), dtype=np.float32)
    r = np.arange(rows)
    pos = np.empty(n, dtype=np.intp)
    for a in range(0, n, rows):
        q = Q[a:a + rows]
        k = len(q)  # shorter in the last block only
        qk, sk, rk = qa[:k], s[:k], r[:k]
        np.multiply(q, -2.0, out=qk[:, :d])
        _screen(qk, CA, sk)
        if skip_self:
            sk.flat[a::m + 1] = np.inf  # sk[i, a + i] for every i: m + 1 apart
        j = sk.argmin(axis=1)
        lo = sk[rk, j]
        sk[rk, j] = np.inf
        for i in (sk.min(axis=1) <= lo + tol).nonzero()[0]:
            sk[i, j[i]] = lo[i]
            cand = np.flatnonzero(sk[i] <= lo[i] + tol)
            j[i] = cand[np.sqrt(np.square(q[i] - C[cand]).sum(axis=1)).argmin()]
        pos[a:a + k] = j
    return pos


def _screen(qa, CA, out):
    """[−2q, 1]·[c, ‖c‖²] into out for every query row and candidate column:
    ‖q − c‖² less ‖q‖², in float32."""
    np.matmul(qa, CA, out=out)


def check_k(k: int, d: int) -> None:
    """InvalidK unless 1 <= k <= d, for k of d features kept."""
    if not 1 <= k <= d:
        raise InvalidK(f"relief_k must lie in [1, {d}] for {d} features, got {k}")


def select_top(weights, k: int) -> list:
    """Indices of the k largest weights, descending; ties keep the lower index."""
    check_k(k, len(weights))
    order = np.argsort(-weights, kind="stable")
    return [int(i) for i in order[:k]]
