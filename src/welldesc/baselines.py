"""Two-class reference classifiers: naive Bayes, LDA, and a kernel SVM.

All three train on the full imbalanced two-class sample, unlike the
hypersphere which sees only the minority class. Ties in every decision rule
go to HIGH, the majority class.

svm_decision scores with the exact loop, `kernels.kernel_sum`. predict_csvm
screens each block with `kernels.screen_sum` and re-scores with the exact
loop only the rows whose screened margin lies within the screen's bound (64
times the rounding bound derived in `kernels.screen_sum`) of 0, so its
labels are the exact loop's.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, NormStats, normalize_apply
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    SingleClassInput,
    SingularCovariance,
)
from . import smo
from .kernels import KernelSpec, _feature_sum, kernel_diag, kernel_row, kernel_sum, screen_sum
from .kernels import gram  # noqa: F401  only for perfbench/spans.py

_CLASSES = (LOW, HIGH)
_LOG_2PI = float(np.log(2.0 * np.pi))
_VAR_FLOOR = 1e-9
# Bytes of kernel columns the SVM solver keeps, LIBSVM's default cache size.
_CACHE_BYTES = 100 << 20


def _two_class_input(X, y, norm_stats: NormStats | None):
    """(X normalized, y, stats) of a sample holding both classes; stats default to the identity."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X {X.shape} does not match y {y.shape}")
    for cls in _CLASSES:
        if not (y == cls).any():
            raise SingleClassInput(f"class {cls} absent from training labels")
    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    return normalize_apply(stats, X), y, stats


@dataclass
class GnbModel:
    priors: np.ndarray      # (2,), order LOW, HIGH
    means: np.ndarray       # (2, d)
    variances: np.ndarray   # (2, d), floored
    norm_stats: NormStats


def _class_moments(Xn: np.ndarray, y: np.ndarray) -> tuple:
    """Rows, priors and means of the classes LOW, HIGH of a normalized sample."""
    rows = [Xn[y == cls] for cls in _CLASSES]
    priors = np.array([r.shape[0] / Xn.shape[0] for r in rows])
    return rows, priors, np.array([r.mean(axis=0) for r in rows])


def train_gnb(X, y, norm_stats: NormStats | None = None) -> GnbModel:
    """Per-class independent Gaussians by maximum likelihood."""
    Xn, y, stats = _two_class_input(X, y, norm_stats)
    rows, priors, means = _class_moments(Xn, y)
    variances = np.array([np.maximum(r.var(axis=0), _VAR_FLOOR) for r in rows])
    return GnbModel(priors, means, variances, stats)


def _gnb_scores(m: GnbModel, X) -> np.ndarray:
    """(2, n) log-posteriors, up to a shared constant, of the classes LOW, HIGH.

    Each row's d terms (x - mu)^2 / var + log(2 pi) + log(var) are built
    feature-major and added left to right from zero, as the kernels add
    theirs; for d <= 7 that is the bits of numpy's row sum too.
    """
    XnT = normalize_apply(m.norm_stats, X).T
    terms = np.empty_like(XnT)
    scores = np.empty((len(_CLASSES), XnT.shape[1]))
    # a term that overflows gives a log-likelihood of -inf, its limit
    with np.errstate(over="ignore"):
        for c, _ in enumerate(_CLASSES):
            mu, var = m.means[c][:, np.newaxis], m.variances[c][:, np.newaxis]
            np.square(np.subtract(XnT, mu, out=terms), out=terms)
            terms /= var
            terms += _LOG_2PI + np.log(var)
            np.multiply(_feature_sum(terms), -0.5, out=scores[c])
            scores[c] += np.log(m.priors[c])
    return scores


def predict_gnb(m: GnbModel, X) -> np.ndarray:
    scores = _gnb_scores(m, X)
    return np.where(scores[0] > scores[1], LOW, HIGH)


@dataclass
class LdaModel:
    priors: np.ndarray
    means: np.ndarray       # (2, d)
    cov: np.ndarray         # pooled, regularized
    coefs: np.ndarray       # (2, d) precomputed cov^-1 mu_c
    intercepts: np.ndarray  # (2,)
    norm_stats: NormStats


def _lda_discriminant(cov: np.ndarray, means: np.ndarray, priors: np.ndarray):
    try:
        np.linalg.cholesky(cov)
        coefs = np.linalg.solve(cov, means.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance("pooled covariance not positive definite") from exc
    intercepts = -0.5 * np.sum(coefs * means, axis=1) + np.log(priors)
    return coefs, intercepts


def train_lda(X, y, norm_stats: NormStats | None = None) -> LdaModel:
    """Shared-covariance Gaussian classes; covariance ridged by 1e-6 * trace/d."""
    Xn, y, stats = _two_class_input(X, y, norm_stats)
    n, d = Xn.shape
    rows, priors, means = _class_moments(Xn, y)
    centered = [r - mu for r, mu in zip(rows, means)]
    cov = sum(c.T @ c for c in centered) / n
    cov = cov + (1e-6 * np.trace(cov) / d) * np.eye(d)
    coefs, intercepts = _lda_discriminant(cov, means, priors)
    return LdaModel(priors, means, cov, coefs, intercepts, stats)


def _lda_scores(m: LdaModel, X) -> np.ndarray:
    """(2, n) discriminants of the classes LOW, HIGH, one row each along the samples."""
    scores = m.coefs @ normalize_apply(m.norm_stats, X).T
    scores += m.intercepts[:, np.newaxis]
    return scores


def predict_lda(m: LdaModel, X) -> np.ndarray:
    scores = _lda_scores(m, X)
    return np.where(scores[0] > scores[1], LOW, HIGH)


@dataclass
class SvmModel:
    kernel: KernelSpec
    C_svm: float
    betas: np.ndarray       # per support vector
    labels: np.ndarray      # +1 (LOW) / -1 (HIGH)
    X_sv: np.ndarray        # support vectors, normalized
    bias: float
    norm_stats: NormStats


class _KernelColumns:
    """Column source of the Gram of Xn for `smo.solve`, never formed whole.

    A column is kernel_row(kernel, Xn[i], Xn), which equals the Gram column
    bit for bit. It is computed the first time the solver asks for it and
    kept; past _CACHE_BYTES the least recently used column is dropped and
    computed again if it is asked for again (the kernel cache of SVMlight
    and LIBSVM). curv(i) is computed afresh on every call, into two n-vectors
    the source owns; caching it too would double the cache's memory. dot(z)
    adds the columns of the nonzero z_i in index order, reading the cached
    ones and computing the others without keeping them, so a refresh leaves
    the cache and its order as they were. The sample is kept in Fortran
    order, so each column reads it feature-major; a block from
    `normalize_apply` already is, and asfortranarray copies nothing.
    """

    def __init__(self, kernel: KernelSpec, Xn: np.ndarray):
        self.kernel = kernel
        self.Xn = np.asfortranarray(Xn)
        self.diag = kernel_diag(kernel, self.Xn)
        self.room = max(1, _CACHE_BYTES // (8 * Xn.shape[0]))
        self.cache = OrderedDict()
        self._curv, self._scratch = np.empty_like(self.diag), np.empty_like(self.diag)

    def col(self, i: int) -> np.ndarray:
        column = self.cache.get(i)
        if column is not None:
            self.cache.move_to_end(i)
            return column
        if len(self.cache) >= self.room:
            self.cache.popitem(last=False)
        column = self.cache[i] = kernel_row(self.kernel, self.Xn[i], self.Xn)
        return column

    def curv(self, i: int) -> np.ndarray:
        return smo.curvature(self.diag, i, self.col(i), self._curv, self._scratch)

    def dot(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros(self.Xn.shape[0])
        for i in np.flatnonzero(z):
            column = self.cache.get(int(i))
            if column is None:
                column = kernel_row(self.kernel, self.Xn[i], self.Xn)
            out += z[i] * column
        return out


def check_svm_cost(C_svm: float) -> None:
    """InvalidConfig unless the SVM's box constraint is positive and finite
    (an infinite box would make the solver's lower bound inf - inf)."""
    if not 0 < C_svm < np.inf:
        raise InvalidConfig(f"C_svm must be positive and finite, got {C_svm}")


def train_csvm(X, y, kernel: KernelSpec = KernelSpec(), C_svm: float = 1.0,
               max_passes: int | None = None, norm_stats: NormStats | None = None) -> SvmModel:
    """Soft-margin kernel SVM, its dual solved by the shared pairwise solver.

    LOW maps to +1, HIGH to -1. Each working pair is the most violating index
    and the partner with the largest second-order gain (`welldesc.smo`); the
    two-variable step keeps sum(beta * y) = 0 and stays in the box [0, C].
    C_svm is judged by check_svm_cost. max_passes caps the solver's passes;
    None leaves smo.solve's default. The Gram is never built: the solver
    reads kernel columns from a cache that computes each on first use and
    holds at most _CACHE_BYTES (100 MB) of them, so training needs that
    budget plus O(n) vectors. Up to the solver's first full refresh (pass
    1024) the result is bit-identical to a dense Gram's; after it only the
    summation order of the refresh differs.
    """
    Xn, y, stats = _two_class_input(X, y, norm_stats)
    check_svm_cost(C_svm)
    n = Xn.shape[0]
    yy = np.where(y == LOW, 1.0, -1.0)
    C = float(C_svm)
    beta, v, up, low = smo.solve(_KernelColumns(kernel, Xn), yy, -np.ones(n), C, np.zeros(n),
                                 max_passes)

    unbounded = smo.free(beta, C)
    if unbounded.any():
        bias = float(v[unbounded].mean())
    else:
        bias = 0.5 * (float(np.max(v[up])) + float(np.min(v[low])))

    keep = beta > 0.0
    return SvmModel(kernel=kernel, C_svm=C, betas=beta[keep], labels=yy[keep],
                    X_sv=Xn[keep], bias=bias, norm_stats=stats)


def _margins(m: SvmModel, X) -> np.ndarray:
    """Signed margin of every row of a raw-space query block, by the exact loop.

    The block is read feature-major, as normalize_apply lays it out; with no
    support vectors every margin is the bias.
    """
    Xn = normalize_apply(m.norm_stats, X)
    acc = kernel_sum(m.kernel, m.betas * m.labels, m.X_sv, Xn)
    with np.errstate(over="ignore"):  # a margin that overflows keeps its sign
        return acc + m.bias


def svm_decision(m: SvmModel, x) -> float:
    """Signed margin of one raw-space query point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(
            f"expected a vector of {m.X_sv.shape[1]} features, got shape {x.shape}")
    return float(_margins(m, x[np.newaxis, :])[0])


def predict_csvm(m: SvmModel, X) -> np.ndarray:
    """LOW where the margin is strictly positive; sign zero goes to HIGH.

    The margin is screened with `kernels.screen_sum`, whose sum lies within
    err of the exact loop's. Adding the bias rounds to the nearest double
    and keeps the sign, so a row whose screened margin exceeds err in size
    has the exact margin's sign. The others, and any that is not finite, are
    re-scored by the exact loop, as svm_decision scores them.
    """
    X = np.asarray(X, dtype=float)
    acc, err = screen_sum(m.kernel, m.betas * m.labels, m.X_sv, normalize_apply(m.norm_stats, X))
    with np.errstate(over="ignore"):  # a margin that overflows keeps its sign
        margin = np.add(acc, m.bias, out=acc)
    check = ~(np.abs(margin) > err)
    if check.any():
        margin[check] = _margins(m, X[check])
    return np.where(margin > 0.0, LOW, HIGH)
