"""Versioned plain-text model files.

One model per file: a format tag, then key=value lines of comma-separated
numbers at 17 significant digits, so a load reproduces the saved doubles bit
for bit. _FORMATS, keyed by model type, is the one table of formats: the tag
(SVDD-MODEL v1, SVM-MODEL v1, GNB-MODEL v1, LDA-MODEL v1), whether a kernel
line (KernelSpec.describe()) follows it, and the functions that dump the
model's lines in file order and load it back. Scalars and vectors take a line
each (C=, norm_mean=, ...), stored vectors one line apiece (alpha= x=,
beta= y= x=, cov=); _rows reads both kinds, checks every vector's width and
rejects a NaN or an infinite number, which no saved model holds.
"""

from typing import Callable, NamedTuple

import numpy as np

from . import svdd as _svdd
from .baselines import GnbModel, LdaModel, SvmModel, _lda_discriminant
from .dataio import NormStats
from .errors import MalformedFile
from .kernels import KernelSpec, gram


def _fmt(value) -> str:
    """A number, or a vector's numbers comma-separated, at 17 significant digits."""
    values = [value] if isinstance(value, float) else np.asarray(value, dtype=float).ravel().tolist()
    return ",".join(f"{v:.17g}" for v in values)


def _fields(body, path) -> dict:
    """The body's lines grouped by their first key, each as (keys, value texts)."""
    fields = {}
    for line in body:
        keys, eqs, values = zip(*(tok.partition("=") for tok in line.split()))
        if not all(eqs):
            raise MalformedFile(f"{path}: expected key=value tokens, got {line!r}")
        fields.setdefault(keys[0], []).append((keys, values))
    return fields


def _rows(fields, keys: tuple, path, width: int | None = None, count: int | None = None) -> list:
    """Columns of the lines `keys[0]=.. keys[1]=.. ...`, one float array per key.

    Every line that starts with keys[0] must hold exactly these keys, in order.
    Each key but the last holds one number a line, returned as a 1-d array;
    the last holds `width` comma-separated numbers (the first line's count
    when None), returned as a (lines, width) matrix. count, when given, is the
    number of lines needed. Each column is parsed in one pass; a NaN or an
    infinite number raises MalformedFile naming its key.
    """
    lines = fields.get(keys[0], [])
    if count is not None and len(lines) != count:
        raise MalformedFile(f"{path}: expected {count} {keys[0]!r} line(s), found {len(lines)}")
    texts = list(zip(*(values for _, values in lines))) or [()] * len(keys)
    if width is None:
        width = texts[-1][0].count(",") + 1 if lines else 0
    sizes = (1,) * (len(keys) - 1) + (width,)
    counts = [{t.count(",") + 1 for t in col} for col in texts]  # numbers per value, per key
    if any(k != keys for k, _ in lines) or any(c - {n} for c, n in zip(counts, sizes)):
        raise MalformedFile(f"{path}: {keys[0]!r} lines must hold keys {keys} of {sizes} numbers")
    try:
        numbers = [list(map(float, ",".join(col).split(","))) if col else [] for col in texts]
    except ValueError as exc:
        raise MalformedFile(f"{path}: {keys[0]!r} lines: {exc}") from exc
    columns = [np.array(v, dtype=float).reshape(len(lines), n) for v, n in zip(numbers, sizes)]
    for key, column in zip(keys, columns):
        if not np.isfinite(column).all():
            raise MalformedFile(f"{path}: {key!r} holds a NaN or an infinite value")
    return [c.ravel() for c in columns[:-1]] + columns[-1:]


def _one(fields, key: str, path, width: int | None = None) -> np.ndarray:
    return _rows(fields, (key,), path, width, count=1)[0][0]


def _scalar(fields, key: str, path) -> float:
    return float(_one(fields, key, path, 1)[0])


def _norm_lines(stats: NormStats) -> list:
    return [f"norm_mean={_fmt(stats.mean)}", f"norm_std={_fmt(stats.std)}"]


def _norm_stats(fields, path) -> NormStats:
    mean = _one(fields, "norm_mean", path)
    return NormStats(mean=mean, std=_one(fields, "norm_std", path, mean.size))


def _by_class(fields, stem: str, path, d: int) -> np.ndarray:
    """Rows LOW, HIGH of the `{stem}_low` and `{stem}_high` lines."""
    return np.vstack([_one(fields, f"{stem}_low", path, d), _one(fields, f"{stem}_high", path, d)])


def _dump_svdd(m) -> list:
    return [f"C={_fmt(m.C)}", f"r2={_fmt(m.r2)}", *_norm_lines(m.norm_stats),
            *(f"alpha={_fmt(a)} x={_fmt(x)}" for a, x in zip(m.alphas, m.X_train))]


def _load_svdd(fields, kernel, path) -> _svdd.SvddModel:
    stats = _norm_stats(fields, path)
    alphas, X = _rows(fields, ("alpha", "x"), path, stats.mean.size)
    if not alphas.size:
        raise MalformedFile(f"{path}: no stored vectors")
    C, r2 = _scalar(fields, "C", path), _scalar(fields, "r2", path)
    return _svdd.SvddModel(X, alphas, kernel, C, r2, _svdd._self_term(gram(kernel, X), alphas), stats)


def _dump_svm(m) -> list:
    return [f"C_svm={_fmt(m.C_svm)}", f"bias={_fmt(m.bias)}", *_norm_lines(m.norm_stats),
            *(f"beta={_fmt(b)} y={_fmt(y)} x={_fmt(x)}" for b, y, x in zip(m.betas, m.labels, m.X_sv))]


def _load_svm(fields, kernel, path) -> SvmModel:
    stats = _norm_stats(fields, path)
    betas, labels, X_sv = _rows(fields, ("beta", "y", "x"), path, stats.mean.size)
    return SvmModel(kernel, _scalar(fields, "C_svm", path), betas, labels, X_sv,
                    _scalar(fields, "bias", path), stats)


def _dump_gnb(m) -> list:
    return [f"priors={_fmt(m.priors)}",
            f"mean_low={_fmt(m.means[0])}", f"var_low={_fmt(m.variances[0])}",
            f"mean_high={_fmt(m.means[1])}", f"var_high={_fmt(m.variances[1])}",
            *_norm_lines(m.norm_stats)]


def _load_gnb(fields, kernel, path) -> GnbModel:
    stats = _norm_stats(fields, path)
    means, variances = (_by_class(fields, stem, path, stats.mean.size) for stem in ("mean", "var"))
    return GnbModel(_one(fields, "priors", path, 2), means, variances, stats)


def _dump_lda(m) -> list:
    return [f"priors={_fmt(m.priors)}",
            f"mean_low={_fmt(m.means[0])}", f"mean_high={_fmt(m.means[1])}",
            *_norm_lines(m.norm_stats), *(f"cov={_fmt(row)}" for row in m.cov)]


def _load_lda(fields, kernel, path) -> LdaModel:
    stats = _norm_stats(fields, path)
    d = stats.mean.size
    priors, means = _one(fields, "priors", path, 2), _by_class(fields, "mean", path, d)
    (cov,) = _rows(fields, ("cov",), path, d, count=d)
    return LdaModel(priors, means, cov, *_lda_discriminant(cov, means, priors), stats)


class _Format(NamedTuple):
    tag: str
    kernel: bool        # the body starts with KernelSpec.describe()
    dump: Callable      # model -> body lines after the kernel line
    load: Callable      # (fields, kernel or None, path) -> model


_FORMATS = {
    _svdd.SvddModel: _Format("SVDD-MODEL v1", True, _dump_svdd, _load_svdd),
    SvmModel: _Format("SVM-MODEL v1", True, _dump_svm, _load_svm),
    GnbModel: _Format("GNB-MODEL v1", False, _dump_gnb, _load_gnb),
    LdaModel: _Format("LDA-MODEL v1", False, _dump_lda, _load_lda),
}
_BY_TAG = {fmt.tag: fmt for fmt in _FORMATS.values()}


def save_model(model, path) -> None:
    fmt = _FORMATS.get(type(model))
    if fmt is None:
        raise TypeError(f"cannot persist {type(model).__name__}")
    lines = [fmt.tag, *([model.kernel.describe()] if fmt.kernel else []), *fmt.dump(model)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read any saved model; the tag on the first line picks the format."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not lines:
        raise MalformedFile(f"{path}: empty model file")
    tag, body, kernel = lines[0].strip(), lines[1:], None
    fmt = _BY_TAG.get(tag)
    if fmt is None:
        raise MalformedFile(f"{path}: unknown model tag {tag!r}")
    if fmt.kernel:
        if not body:
            raise MalformedFile(f"{path}: truncated model")
        kernel, body = KernelSpec.parse(body[0]), body[1:]
    return fmt.load(_fields(body, path), kernel, path)
