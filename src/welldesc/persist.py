"""Versioned plain-text model files.

One model per file. Line 1 is a format tag (SVDD-MODEL v1, GNB-MODEL v1,
LDA-MODEL v1, SVM-MODEL v1); the rest are key=value lines. Floats print with
17 significant digits, so a load reproduces the saved doubles bit for bit and
predictions survive a round trip exactly.
"""

import numpy as np

from . import svdd as _svdd
from .baselines import GnbModel, LdaModel, SvmModel, _lda_discriminant
from .dataio import NormStats
from .errors import MalformedFile
from .kernels import KernelSpec, gram

_SVDD_TAG = "SVDD-MODEL v1"
_GNB_TAG = "GNB-MODEL v1"
_LDA_TAG = "LDA-MODEL v1"
_SVM_TAG = "SVM-MODEL v1"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _fmt_vec(arr) -> str:
    return ",".join(_fmt(v) for v in np.asarray(arr, dtype=float).ravel())


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise MalformedFile(f"bad numeric list {text!r}") from exc


def save_model(model, path) -> None:
    if isinstance(model, _svdd.SvddModel):
        lines = [_SVDD_TAG, model.kernel.describe(),
                 f"C={_fmt(model.C)}", f"r2={_fmt(model.r2)}",
                 f"norm_mean={_fmt_vec(model.norm_stats.mean)}",
                 f"norm_std={_fmt_vec(model.norm_stats.std)}"]
        lines += [f"alpha={_fmt(a)} x={_fmt_vec(x)}"
                  for a, x in zip(model.alphas, model.X_train)]
    elif isinstance(model, GnbModel):
        lines = [_GNB_TAG,
                 f"priors={_fmt_vec(model.priors)}",
                 f"mean_low={_fmt_vec(model.means[0])}",
                 f"var_low={_fmt_vec(model.variances[0])}",
                 f"mean_high={_fmt_vec(model.means[1])}",
                 f"var_high={_fmt_vec(model.variances[1])}",
                 f"norm_mean={_fmt_vec(model.norm_stats.mean)}",
                 f"norm_std={_fmt_vec(model.norm_stats.std)}"]
    elif isinstance(model, LdaModel):
        lines = [_LDA_TAG,
                 f"priors={_fmt_vec(model.priors)}",
                 f"mean_low={_fmt_vec(model.means[0])}",
                 f"mean_high={_fmt_vec(model.means[1])}",
                 f"norm_mean={_fmt_vec(model.norm_stats.mean)}",
                 f"norm_std={_fmt_vec(model.norm_stats.std)}"]
        lines += [f"cov={_fmt_vec(row)}" for row in model.cov]
    elif isinstance(model, SvmModel):
        lines = [_SVM_TAG, model.kernel.describe(),
                 f"C_svm={_fmt(model.C_svm)}", f"bias={_fmt(model.bias)}",
                 f"norm_mean={_fmt_vec(model.norm_stats.mean)}",
                 f"norm_std={_fmt_vec(model.norm_stats.std)}"]
        lines += [f"beta={_fmt(b)} y={_fmt(y)} x={_fmt_vec(x)}"
                  for b, y, x in zip(model.betas, model.labels, model.X_sv)]
    else:
        raise TypeError(f"cannot persist {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_fields(line: str, path) -> dict:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise MalformedFile(f"{path}: bad token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


def _take(fields: dict, key: str, path):
    if key not in fields:
        raise MalformedFile(f"{path}: missing field {key!r}")
    return fields.pop(key)


def load_model(path):
    """Read any saved model; the first line picks the format."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise MalformedFile(f"{path}: empty model file")
    tag, body = lines[0].strip(), lines[1:]
    if tag == _SVDD_TAG:
        return _load_svdd(body, path)
    if tag == _GNB_TAG:
        return _load_gnb(body, path)
    if tag == _LDA_TAG:
        return _load_lda(body, path)
    if tag == _SVM_TAG:
        return _load_svm(body, path)
    raise MalformedFile(f"{path}: unknown model tag {tag!r}")


def _scalar_lines(body, path) -> dict:
    fields = {}
    for line in body:
        key, _, value = line.partition("=")
        if not _:
            raise MalformedFile(f"{path}: expected key=value, got {line!r}")
        fields.setdefault(key, []).append(value)
    return fields


def _one(fields, key, path) -> str:
    if key not in fields or len(fields[key]) != 1:
        raise MalformedFile(f"{path}: need exactly one {key!r} line")
    return fields[key][0]


def _load_svdd(body, path) -> _svdd.SvddModel:
    if not body:
        raise MalformedFile(f"{path}: truncated model")
    kernel = KernelSpec.parse(body[0])
    fields = _scalar_lines([ln for ln in body[1:] if not ln.startswith("alpha=")], path)
    C = float(_one(fields, "C", path))
    r2 = float(_one(fields, "r2", path))
    stats = NormStats(mean=_parse_vec(_one(fields, "norm_mean", path)),
                      std=_parse_vec(_one(fields, "norm_std", path)))
    alphas, vectors = [], []
    for line in body[1:]:
        if not line.startswith("alpha="):
            continue
        parts = _split_fields(line, path)
        alphas.append(float(_take(parts, "alpha", path)))
        vectors.append(_parse_vec(_take(parts, "x", path)))
    if not vectors:
        raise MalformedFile(f"{path}: no stored vectors")
    X = np.vstack(vectors)
    alphas = np.array(alphas)
    G = gram(kernel, X)
    cfg_defaults = _svdd.SvddTrainConfig(kernel=kernel)
    return _svdd.SvddModel(
        X_train=X, alphas=alphas, kernel=kernel, C=C, r2=r2,
        self_term=_svdd._self_term(G, alphas), norm_stats=stats,
        kkt_tol=cfg_defaults.kkt_tol, boundary_tol=cfg_defaults.boundary_tol,
    )


def _load_gnb(body, path) -> GnbModel:
    fields = _scalar_lines(body, path)
    return GnbModel(
        priors=_parse_vec(_one(fields, "priors", path)),
        means=np.vstack([_parse_vec(_one(fields, "mean_low", path)),
                         _parse_vec(_one(fields, "mean_high", path))]),
        variances=np.vstack([_parse_vec(_one(fields, "var_low", path)),
                             _parse_vec(_one(fields, "var_high", path))]),
        norm_stats=NormStats(mean=_parse_vec(_one(fields, "norm_mean", path)),
                             std=_parse_vec(_one(fields, "norm_std", path))),
    )


def _load_lda(body, path) -> LdaModel:
    fields = _scalar_lines(body, path)
    priors = _parse_vec(_one(fields, "priors", path))
    means = np.vstack([_parse_vec(_one(fields, "mean_low", path)),
                       _parse_vec(_one(fields, "mean_high", path))])
    if "cov" not in fields or len(fields["cov"]) != means.shape[1]:
        raise MalformedFile(f"{path}: expected {means.shape[1]} cov rows")
    cov = np.vstack([_parse_vec(row) for row in fields["cov"]])
    coefs, intercepts = _lda_discriminant(cov, means, priors)
    return LdaModel(
        priors=priors, means=means, cov=cov, coefs=coefs, intercepts=intercepts,
        norm_stats=NormStats(mean=_parse_vec(_one(fields, "norm_mean", path)),
                             std=_parse_vec(_one(fields, "norm_std", path))),
    )


def _load_svm(body, path) -> SvmModel:
    if not body:
        raise MalformedFile(f"{path}: truncated model")
    kernel = KernelSpec.parse(body[0])
    fields = _scalar_lines([ln for ln in body[1:] if not ln.startswith("beta=")], path)
    betas, labels, vectors = [], [], []
    for line in body[1:]:
        if not line.startswith("beta="):
            continue
        parts = _split_fields(line, path)
        betas.append(float(_take(parts, "beta", path)))
        labels.append(float(_take(parts, "y", path)))
        vectors.append(_parse_vec(_take(parts, "x", path)))
    d = vectors[0].size if vectors else _parse_vec(_one(fields, "norm_mean", path)).size
    return SvmModel(
        kernel=kernel,
        C_svm=float(_one(fields, "C_svm", path)),
        betas=np.array(betas),
        labels=np.array(labels),
        X_sv=np.vstack(vectors) if vectors else np.empty((0, d)),
        bias=float(_one(fields, "bias", path)),
        norm_stats=NormStats(mean=_parse_vec(_one(fields, "norm_mean", path)),
                             std=_parse_vec(_one(fields, "norm_std", path))),
    )
