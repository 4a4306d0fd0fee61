"""Relief feature weighting for binary-labeled samples.

Weights reward features that separate a point from its nearest neighbor of
the other class (miss) and penalize ones that separate it from its nearest
neighbor of the same class (hit). Features are min-max scaled to [0, 1]
internally, per Relief's diff convention; the weights depend only on feature
rank geometry, not on units.

The nearest-neighbor search is split by class and done in blocks: a class's
rows are queried against that class's own rows for hits and against every
other row for misses, a block of query rows at a time, so no row-level mask
is built and the temporary memory stays bounded whatever the row count. On a
machine with two or more CPUs the blocks are shared out between two threads
in two contiguous ranges; numpy releases the interpreter lock inside each
block's product and reductions, and each row's neighbor is computed the same
way by either thread. Each block is screened with one matrix product,
‖c‖² − 2q·c, whose rounding error has a known bound. A row whose best and
second-best screen values lie within that bound is re-checked with the exact
distance the per-row pass uses, over every candidate within the bound, and
the first minimum wins. The weight vector adds the per-row terms one after
another in row order, so the weights equal those of the plain
one-row-at-a-time pass bit for bit.
"""

import os
import threading

import numpy as np

from .errors import ConstantAllFeatures, DimensionMismatch, InvalidK, NonFiniteInput, SingleClassInput

# Query×candidate entries in one worker's screen block: 1 MB of float64,
# however many rows the input has.
_BLOCK_ENTRIES = 131072


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads that share one search: the calling thread and at most one more.
_WORKERS = 2 if _cpus() >= 2 else 1


def relief_weights(X, y) -> np.ndarray:
    """Weight of each feature from one deterministic full pass over the
    rows, in index order.

    Nearest hit and miss are found by Euclidean distance on the scaled
    features; ties go to the lowest row index. A constant feature scores
    exactly 0. A row whose class has no second member contributes only its
    miss term. A NaN or infinite cell raises NonFiniteInput.

    The search runs per class in blocks of ``max(1, 131072 // m)`` query rows
    against m candidates, so each block holds about 1 MB, on up to two
    threads with one block buffer each. A GEMM screen ranks the candidates;
    any candidate the screen cannot tell from the best within its rounding
    bound is re-measured as ``sqrt(sum((x - c)**2))``, the per-row pass's
    own expression. W adds ``-hit_0, +miss_0, -hit_1, ...`` left to right;
    the weights are therefore bit-identical to a per-row loop, whatever the
    thread count.
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

    The queries go in blocks of ``max(1, _BLOCK_ENTRIES // m)`` rows. With
    two workers and at least two blocks, the first half of the blocks runs
    in the calling thread and the rest in one more thread, each through
    _search into its own slice of the result; the calling thread allocates
    both threads' block buffers. An error in the other thread is raised here
    once it has ended.
    """
    m, d = C.shape
    # Candidates feature-major (C order) with ‖c‖² as a last row, so each
    # product streams along m.
    CA = np.empty((d + 1, m))
    CA[:d] = C.T
    CA[d] = np.square(C).sum(axis=1)
    tol = 64 * (d + 2) * d * np.finfo(float).eps
    n = len(Q)
    rows = max(1, _BLOCK_ENTRIES // m)
    blocks = -(-n // rows)
    pos = np.empty(n, dtype=np.intp)
    if _WORKERS < 2 or blocks < 2:
        _search(Q, C, CA, tol, skip_self, pos, 0, n, *_buffers(min(rows, n), d, m))
        return pos
    cut = rows * ((blocks + 1) // 2)
    mine = _buffers(rows, d, m)
    theirs = _buffers(min(rows, n - cut), d, m)
    failed = []

    def work():
        try:
            _search(Q, C, CA, tol, skip_self, pos, cut, n, *theirs)
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)

    worker = threading.Thread(target=work, name="relief-search")
    worker.start()
    try:
        _search(Q, C, CA, tol, skip_self, pos, 0, cut, *mine)
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return pos


def _buffers(rows, d, m):
    """One worker's block buffers: the [−2q, 1] query rows, their 1s already
    in place, and the rows×m screen."""
    qa = np.empty((rows, d + 1))
    qa[:, d] = 1.0
    return qa, np.empty((rows, m))


def _search(Q, C, CA, tol, skip_self, pos, start, stop, qa, s):
    """_nearest's answer for query rows start:stop, into pos[start:stop].

    Blocks of len(s) rows, each built in qa (−2q is an exact scaling) and
    screened into s, so the loop allocates nothing the size of a block.
    """
    m, d = C.shape
    rows = len(s)
    r = np.arange(rows)
    for a in range(start, stop, rows):
        q = Q[a:min(a + rows, stop)]
        k = len(q)  # shorter in a range's last block only
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


def _screen(qa, CA, out):
    """[−2q, 1]·[c, ‖c‖²] into out for every query row and candidate column:
    ‖q − c‖² less ‖q‖²."""
    np.matmul(qa, CA, out=out)


def select_top(weights, k: int) -> list:
    """Indices of the k largest weights, descending; ties keep the lower index."""
    d = len(weights)
    if not 1 <= k <= d:
        raise InvalidK(f"k must lie in [1, {d}], got {k}")
    order = np.argsort(-weights, kind="stable")
    return [int(i) for i in order[:k]]
