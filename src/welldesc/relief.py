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
Distances are summed in the order numpy sums one row, the square root is
kept before the argmin, and the weight vector adds the per-row terms one
after another in row order, so the weights equal those of the plain
one-row-at-a-time pass bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstantAllFeatures, DimensionMismatch, InvalidK, NonFiniteInput, SingleClassInput

# Query×candidate entries in one distance block: 256 KB of float64 per
# temporary, however many rows the input has.
_BLOCK_ENTRIES = 32768


@dataclass
class FeatureWeights:
    weights: np.ndarray
    feature_names: list


def relief_weights(X, y, feature_names=None) -> FeatureWeights:
    """One deterministic full pass over the rows, in index order.

    Nearest hit and miss are found by Euclidean distance on the scaled
    features; ties go to the lowest row index. A constant feature scores
    exactly 0. A row whose class has no second member contributes only its
    miss term. A NaN or infinite cell raises NonFiniteInput.

    The search runs per class in blocks of ``max(1, 32768 // m)`` query rows
    against m candidates, so each temporary holds about 256 KB. Squared
    differences are added in numpy's summation order for one row, then
    square-rooted, and W adds ``-hit_0, +miss_0, -hit_1, ...`` left to right;
    the weights are therefore bit-identical to a per-row loop.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatch(f"X {X.shape} does not match y {y.shape}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("X has NaN or infinite cells; relief needs finite features")
    n, d = X.shape
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassInput("relief needs both classes present")

    vmin = X.min(axis=0)
    spread = X.max(axis=0) - vmin
    if not (spread > 0).any():
        raise ConstantAllFeatures("every feature is constant")
    S = (X - vmin) / np.where(spread > 0, spread, 1.0)
    ST = np.ascontiguousarray(S.T)

    hit = np.empty(n, dtype=np.intp)
    hit_dist = np.empty(n)
    miss = np.empty(n, dtype=np.intp)
    for c in classes:
        own = np.flatnonzero(y == c)
        other = np.flatnonzero(y != c)
        j, hit_dist[own] = _nearest(S[own], ST[:, own], skip_self=True)
        hit[own] = own[j]
        j, _ = _nearest(S[own], ST[:, other])
        miss[own] = other[j]

    # Row 0 is W's zero start; row 2i+1 is -|hit_i - x_i| (0 without a hit),
    # row 2i+2 is |miss_i - x_i|. accumulate adds strictly in row order,
    # unlike reduce, which may sum a contiguous column pairwise.
    terms = np.zeros((2 * n + 1, d))
    found = np.flatnonzero(np.isfinite(hit_dist))
    terms[2 * found + 1] = -np.abs(S[hit[found]] - S[found])
    terms[2::2] = np.abs(S[miss] - S)
    W = np.add.accumulate(terms, axis=0, out=terms)[-1] / n

    if feature_names is None:
        feature_names = [f"f{j + 1}" for j in range(d)]
    return FeatureWeights(weights=W, feature_names=list(feature_names))


def _nearest(Q, CT, skip_self=False):
    """Position in the candidates of each query row's nearest one, and its distance.

    ``CT`` holds the m candidates as columns (d×m). With ``skip_self`` the
    queries are the candidates themselves and query i never matches
    candidate i. Ties go to the lowest position, as argmin keeps the first.
    """
    m = CT.shape[1]
    rows = max(1, _BLOCK_ENTRIES // m)
    pos = np.empty(len(Q), dtype=np.intp)
    best = np.empty(len(Q))
    for a in range(0, len(Q), rows):
        q = Q[a:a + rows]
        r = np.arange(len(q))
        dist = np.sqrt(_sq_dist(q, CT, 0, len(CT)))
        if skip_self:
            dist[r, a + r] = np.inf
        j = dist.argmin(axis=1)
        pos[a:a + len(q)] = j
        best[a:a + len(q)] = dist[r, j]
    return pos, best


def _sq_dist(q, CT, lo, hi):
    """Squared distances over features lo..hi-1 between query rows and candidates.

    The per-feature terms are added in the order numpy's pairwise summation
    adds one contiguous row of hi-lo values: left to right below 8 values,
    eight running sums combined as a tree up to 128, halves above that. The
    result therefore equals ``np.square(x - C).sum(axis=1)`` bit for bit.
    """
    def sq(k):
        t = q[:, k, None] - CT[k]
        return np.square(t, out=t)

    n = hi - lo
    if n < 8:
        acc = sq(lo)
        for k in range(lo + 1, hi):
            acc += sq(k)
        return acc
    if n <= 128:
        part = [sq(lo + j) for j in range(8)]
        stop = hi - n % 8
        for k in range(lo + 8, stop):
            part[(k - lo) % 8] += sq(k)
        acc = ((part[0] + part[1]) + (part[2] + part[3])) + ((part[4] + part[5]) + (part[6] + part[7]))
        for k in range(stop, hi):
            acc += sq(k)
        return acc
    half = n // 2 - (n // 2) % 8
    return _sq_dist(q, CT, lo, lo + half) + _sq_dist(q, CT, lo + half, hi)


def select_top(w: FeatureWeights, k: int = 4) -> list:
    """Indices of the k largest weights, descending; ties keep the lower index."""
    d = len(w.weights)
    if not 1 <= k <= d:
        raise InvalidK(f"k must lie in [1, {d}], got {k}")
    order = np.argsort(-w.weights, kind="stable")
    return [int(i) for i in order[:k]]
