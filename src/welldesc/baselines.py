"""Two-class reference classifiers: naive Bayes, LDA, and a kernel SVM.

All three train on the full imbalanced two-class sample, unlike the
hypersphere which sees only the minority class. Ties in every decision rule
go to HIGH, the majority class.
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
from .kernels import KernelSpec, kernel_diag, kernel_row
from .kernels import gram  # noqa: F401  only for perfbench/spans.py

_CLASSES = (LOW, HIGH)
_LOG_2PI = float(np.log(2.0 * np.pi))
_VAR_FLOOR = 1e-9
# Bytes of kernel columns the SVM solver keeps, LIBSVM's default cache size.
_CACHE_BYTES = 100 << 20


def _check_two_class(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X {X.shape} does not match y {y.shape}")
    for cls in _CLASSES:
        if not (y == cls).any():
            raise SingleClassInput(f"class {cls} absent from training labels")
    return X, y


@dataclass
class GnbModel:
    priors: np.ndarray      # (2,), order LOW, HIGH
    means: np.ndarray       # (2, d)
    variances: np.ndarray   # (2, d), floored
    norm_stats: NormStats


def train_gnb(X, y, norm_stats: NormStats | None = None) -> GnbModel:
    """Per-class independent Gaussians by maximum likelihood."""
    X, y = _check_two_class(X, y)
    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    Xn = normalize_apply(stats, X)
    priors, means, variances = [], [], []
    for cls in _CLASSES:
        rows = Xn[y == cls]
        priors.append(rows.shape[0] / Xn.shape[0])
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), _VAR_FLOOR))
    return GnbModel(np.array(priors), np.array(means), np.array(variances), stats)


def predict_gnb(m: GnbModel, X) -> np.ndarray:
    Xn = normalize_apply(m.norm_stats, np.asarray(X, dtype=float))
    scores = []
    for c, _ in enumerate(_CLASSES):
        mu, var = m.means[c], m.variances[c]
        ll = -0.5 * (_LOG_2PI + np.log(var) + (Xn - mu) ** 2 / var).sum(axis=1)
        scores.append(np.log(m.priors[c]) + ll)
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
    X, y = _check_two_class(X, y)
    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    Xn = normalize_apply(stats, X)
    n, d = Xn.shape
    priors, means = [], []
    scatter = np.zeros((d, d))
    for cls in _CLASSES:
        rows = Xn[y == cls]
        priors.append(rows.shape[0] / n)
        mu = rows.mean(axis=0)
        means.append(mu)
        centered = rows - mu
        scatter += centered.T @ centered
    cov = scatter / n
    cov = cov + (1e-6 * np.trace(cov) / d) * np.eye(d)
    priors = np.array(priors)
    means = np.array(means)
    coefs, intercepts = _lda_discriminant(cov, means, priors)
    return LdaModel(priors, means, cov, coefs, intercepts, stats)


def predict_lda(m: LdaModel, X) -> np.ndarray:
    Xn = normalize_apply(m.norm_stats, np.asarray(X, dtype=float))
    scores = Xn @ m.coefs.T + m.intercepts
    return np.where(scores[:, 0] > scores[:, 1], LOW, HIGH)


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
    and LIBSVM). dot(z) adds the columns of the nonzero z_i in index order,
    reading the cached ones and computing the others without keeping them,
    so a refresh leaves the cache and its order as they were. The sample is
    kept in Fortran order, so each column reads it feature-major.
    """

    def __init__(self, kernel: KernelSpec, Xn: np.ndarray):
        self.kernel = kernel
        self.Xn = np.asfortranarray(Xn)
        self.diag = kernel_diag(kernel, self.Xn)
        self.room = max(1, _CACHE_BYTES // (8 * Xn.shape[0]))
        self.cache = OrderedDict()

    def col(self, i: int) -> np.ndarray:
        column = self.cache.get(i)
        if column is not None:
            self.cache.move_to_end(i)
            return column
        if len(self.cache) >= self.room:
            self.cache.popitem(last=False)
        column = self.cache[i] = kernel_row(self.kernel, self.Xn[i], self.Xn)
        return column

    def dot(self, z: np.ndarray) -> np.ndarray:
        out = np.zeros(self.Xn.shape[0])
        for i in np.flatnonzero(z):
            column = self.cache.get(int(i))
            if column is None:
                column = kernel_row(self.kernel, self.Xn[i], self.Xn)
            out += z[i] * column
        return out


def train_csvm(X, y, kernel: KernelSpec | None = None, C_svm: float = 1.0,
               max_iter: int | None = None, norm_stats: NormStats | None = None) -> SvmModel:
    """Soft-margin kernel SVM, its dual solved by the shared pairwise solver.

    LOW maps to +1, HIGH to -1. Each working pair is the most violating index
    and the partner with the largest second-order gain (`welldesc.smo`); the
    two-variable step keeps sum(beta * y) = 0 and stays in the box [0, C].
    The Gram is never built: the solver reads kernel columns from a cache
    that computes each on first use and holds at most _CACHE_BYTES (100 MB)
    of them, so training needs that budget plus O(n) vectors. Up to the
    solver's first full refresh (pass 1024) the result is bit-identical to a
    dense Gram's; after it only the summation order of the refresh differs.
    """
    X, y = _check_two_class(X, y)
    if kernel is None:
        kernel = KernelSpec()
    if not C_svm > 0:
        raise InvalidConfig(f"C_svm must be positive, got {C_svm}")
    stats = norm_stats if norm_stats is not None else NormStats.identity(X.shape[1])
    Xn = normalize_apply(stats, X)
    n = Xn.shape[0]
    yy = np.where(y == LOW, 1.0, -1.0)
    C = float(C_svm)
    tol = 1e-6  # the solver's stopping gap; also tells free multipliers from bounded ones
    if max_iter is None:
        max_iter = 10 * n * n
    beta, v, up, low = smo.solve(_KernelColumns(kernel, Xn), yy, -np.ones(n), C, np.zeros(n),
                                 tol, max_iter)

    unbounded = (beta > tol) & (beta < C - tol)
    if unbounded.any():
        bias = float(v[unbounded].mean())
    else:
        bias = 0.5 * (float(np.max(v[up])) + float(np.min(v[low])))

    keep = beta > 0.0
    return SvmModel(kernel=kernel, C_svm=C, betas=beta[keep], labels=yy[keep],
                    X_sv=Xn[keep], bias=bias, norm_stats=stats)


def _margins(m: SvmModel, X) -> np.ndarray:
    """Signed margin of every row of a raw-space query block.

    Each support vector adds its weighted kernel values into one accumulator
    over the whole block, read feature-major from a Fortran-ordered copy;
    with no support vectors every margin is the bias.
    """
    X = np.asarray(X, dtype=float)
    d = m.X_sv.shape[1]
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"expected a 2-d query matrix of {d} features, got shape {X.shape}")
    Xn = np.asfortranarray(normalize_apply(m.norm_stats, X))
    acc = np.zeros(Xn.shape[0])
    for w, sv in zip(m.betas * m.labels, m.X_sv):
        acc += w * kernel_row(m.kernel, sv, Xn)
    return acc + m.bias


def svm_decision(m: SvmModel, x) -> float:
    """Signed margin of one raw-space query point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(
            f"expected a vector of {m.X_sv.shape[1]} features, got shape {x.shape}")
    return float(_margins(m, x[np.newaxis, :])[0])


def predict_csvm(m: SvmModel, X) -> np.ndarray:
    """LOW where the margin is strictly positive; sign zero goes to HIGH."""
    return np.where(_margins(m, X) > 0.0, LOW, HIGH)
