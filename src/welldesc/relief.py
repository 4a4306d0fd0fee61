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
Each block is screened with one matrix product, ‖c‖² − 2q·c, whose rounding
error has a known bound. A row whose best and second-best screen values lie
within that bound is re-checked with the exact distance the per-row pass
uses, over every candidate within the bound, and the first minimum wins. The
weight vector adds the per-row terms one after another in row order, so the
weights equal those of the plain one-row-at-a-time pass bit for bit.
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
    against m candidates, so each temporary holds about 256 KB. A GEMM
    screen ranks the candidates; any candidate the screen cannot tell from
    the best within its rounding bound is re-measured as
    ``sqrt(sum((x - c)**2))``, the per-row pass's own expression. W adds
    ``-hit_0, +miss_0, -hit_1, ...`` left to right; the weights are
    therefore bit-identical to a per-row loop.
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

    # A row whose class has no second member keeps itself as its hit: its
    # term is -0.0, which leaves every partial sum of W unchanged.
    hit = np.arange(n)
    miss = np.empty(n, dtype=np.intp)
    for c in classes:
        own = np.flatnonzero(y == c)
        other = np.flatnonzero(y != c)
        if own.size > 1:
            hit[own] = own[_nearest(S[own], S[own], skip_self=True)]
        miss[own] = other[_nearest(S[own], S[other])]

    # Row 0 is W's zero start; row 2i+1 is -|hit_i - x_i|, row 2i+2 is
    # |miss_i - x_i|. accumulate adds strictly in row order, unlike reduce,
    # which may sum a contiguous column pairwise.
    terms = np.zeros((2 * n + 1, d))
    terms[1::2] = -np.abs(S[hit] - S)
    terms[2::2] = np.abs(S[miss] - S)
    W = np.add.accumulate(terms, axis=0, out=terms)[-1] / n

    if feature_names is None:
        feature_names = [f"f{j + 1}" for j in range(d)]
    return FeatureWeights(weights=W, feature_names=list(feature_names))


def _nearest(Q, C, skip_self=False):
    """Position in the candidate rows C of each query row's nearest one.

    With ``skip_self`` the queries are the candidates themselves and query i
    never matches candidate i. Ties go to the lowest position, and the
    distance that decides is the per-row pass's, bit for bit.

    All values lie in [0, 1], so ‖c‖² ≤ d. The screen s = ‖c‖² − 2q·c is one
    (d+1)-term product, [−2q, 1]·[c, ‖c‖²], whose terms are at most 2 in
    magnitude apart from ‖c‖²: in any BLAS order it lies within
    (d+1)·3d·eps/2 of the product's exact value, and the computed ‖c‖² within
    d²·eps/2 of the exact one, so s differs from the exact ‖q − c‖² − ‖q‖² by
    at most (4d+3)d·eps/2. The per-row pass's sum of squares, with its
    subtractions and squares, is within (d+2)d·eps/2 of exact, and its square
    root moves ties by at most 2d·eps. So the true nearest row lies within
    (5d+7)d·eps of the screen's minimum; ``tol`` is more than 12 times that.
    A row with no second candidate that close keeps the screen's argmin,
    which then is the exact one.
    """
    m, d = C.shape
    # Candidates feature-major (C order) with ‖c‖² as a last row, so each
    # product streams along m; queries as [−2q, 1]. Both scalings are exact.
    CA = np.empty((d + 1, m))
    CA[:d] = C.T
    CA[d] = np.square(C).sum(axis=1)
    QA = np.empty((len(Q), d + 1))
    np.multiply(Q, -2.0, out=QA[:, :d])
    QA[:, d] = 1.0
    tol = 64 * (d + 2) * d * np.finfo(float).eps
    rows = max(1, _BLOCK_ENTRIES // m)
    r = np.arange(rows)
    pos = np.empty(len(Q), dtype=np.intp)
    for a in range(0, len(Q), rows):
        q = Q[a:a + rows]
        r = r[:len(q)]  # shorter in the last block only
        s = _screen(QA[a:a + rows], CA)
        if skip_self:
            s.flat[a::m + 1] = np.inf  # s[k, a + k] for every k: m + 1 apart
        j = s.argmin(axis=1)
        lo = s[r, j]
        s[r, j] = np.inf
        for i in (s.min(axis=1) <= lo + tol).nonzero()[0]:
            s[i, j[i]] = lo[i]
            cand = np.flatnonzero(s[i] <= lo[i] + tol)
            j[i] = cand[np.sqrt(np.square(q[i] - C[cand]).sum(axis=1)).argmin()]
        pos[a:a + len(q)] = j
    return pos


def _screen(qa, CA):
    """[−2q, 1]·[c, ‖c‖²] for every query row and candidate column: ‖q − c‖² less ‖q‖²."""
    return qa @ CA


def select_top(w: FeatureWeights, k: int = 4) -> list:
    """Indices of the k largest weights, descending; ties keep the lower index."""
    d = len(w.weights)
    if not 1 <= k <= d:
        raise InvalidK(f"k must lie in [1, {d}], got {k}")
    order = np.argsort(-w.weights, kind="stable")
    return [int(i) for i in order[:k]]
