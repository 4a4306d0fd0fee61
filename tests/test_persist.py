import re

import numpy as np
import pytest

from welldesc import (
    KernelSpec,
    NormStats,
    SvddTrainConfig,
    load_model,
    predict,
    predict_csvm,
    predict_gnb,
    predict_lda,
    radius2_of,
    save_model,
    train,
    train_csvm,
    train_gnb,
    train_lda,
)
from welldesc.baselines import GnbModel, LdaModel, SvmModel
from welldesc.errors import MalformedFile
from welldesc.svdd import SvddModel

WIDE = KernelSpec(width=2.0)


def _two_class_data(rng, n=30, d=3):
    X = np.vstack([rng.normal(0.0, 0.5, size=(n // 2, d)),
                   rng.normal(2.0, 1.0, size=(n - n // 2, d))])
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return X, y


def test_svdd_file_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(71)
    X = rng.normal(size=(25, 3))
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    m = train(X, SvddTrainConfig(kernel=WIDE, C=0.3), stats)
    path = tmp_path / "m.txt"
    save_model(m, path)
    back = load_model(path)

    assert isinstance(back, SvddModel)
    assert back.kernel == m.kernel
    assert back.C == m.C
    assert back.r2 == m.r2
    assert np.array_equal(back.alphas, m.alphas)
    assert np.array_equal(back.X_train, m.X_train)
    assert np.array_equal(back.norm_stats.mean, m.norm_stats.mean)
    assert back.self_term == m.self_term

    queries = rng.normal(size=(200, 3)) * 3.0
    assert np.array_equal(predict(back, queries), predict(m, queries))
    for q in queries[:20]:
        assert radius2_of(back, q) == radius2_of(m, q)


# Line keys of each format in file order; "*" marks a line repeated once per
# stored vector (SVDD, SVM) or per covariance row (LDA).
_FORMAT_KEYS = {
    "svdd": ["SVDD-MODEL", "kernel width", "C", "r2", "norm_mean", "norm_std", "*alpha x"],
    "svm": ["SVM-MODEL", "kernel width", "C_svm", "bias", "norm_mean", "norm_std", "*beta y x"],
    "gnb": ["GNB-MODEL", "priors", "mean_low", "var_low", "mean_high", "var_high",
            "norm_mean", "norm_std"],
    "lda": ["LDA-MODEL", "priors", "mean_low", "mean_high", "norm_mean", "norm_std", "*cov"],
}


def _fitted(kind):
    rng = np.random.default_rng(76)
    X, y = _two_class_data(rng, n=20, d=2)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    if kind == "svdd":
        return train(X[:10], SvddTrainConfig(kernel=WIDE, C=0.5), stats), 10
    if kind == "svm":
        m = train_csvm(X, y, WIDE, 1.0, norm_stats=stats)
        return m, len(m.betas)
    if kind == "gnb":
        return train_gnb(X, y, stats), 0
    return train_lda(X, y, stats), 2


@pytest.mark.parametrize("kind", sorted(_FORMAT_KEYS))
def test_file_format_shape(tmp_path, kind):
    """Pins the byte layout: the tag, the kernel line and every line's keys in file order."""
    m, repeats = _fitted(kind)
    path = tmp_path / "m.txt"
    save_model(m, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\n\n" not in text
    lines = text[:-1].split("\n")
    assert lines[0] == f"{_FORMAT_KEYS[kind][0]} v1"
    want = []
    for keys in _FORMAT_KEYS[kind][1:]:
        want += [keys[1:]] * repeats if keys.startswith("*") else [keys]
    assert [" ".join(tok.partition("=")[0] for tok in ln.split(" ")) for ln in lines[1:]] == want
    if kind in ("svdd", "svm"):
        assert lines[1] == "kernel=gaussian width=2.0"
    if kind == "svdd":
        assert lines[2] == "C=0.5"
    if kind == "lda":
        assert lines[-2:] == [f"cov={','.join(f'{v:.17g}' for v in row)}" for row in m.cov]


def test_gnb_round_trip(tmp_path):
    rng = np.random.default_rng(72)
    X, y = _two_class_data(rng)
    m = train_gnb(X, y)
    save_model(m, tmp_path / "g.txt")
    back = load_model(tmp_path / "g.txt")
    assert isinstance(back, GnbModel)
    assert np.array_equal(back.priors, m.priors)
    assert np.array_equal(back.means, m.means)
    assert np.array_equal(back.variances, m.variances)
    queries = rng.normal(1.0, 2.0, size=(300, 3))
    assert np.array_equal(predict_gnb(back, queries), predict_gnb(m, queries))


def test_lda_round_trip(tmp_path):
    rng = np.random.default_rng(73)
    X, y = _two_class_data(rng)
    m = train_lda(X, y)
    save_model(m, tmp_path / "l.txt")
    back = load_model(tmp_path / "l.txt")
    assert isinstance(back, LdaModel)
    assert np.array_equal(back.cov, m.cov)
    assert np.array_equal(back.coefs, m.coefs)
    assert np.array_equal(back.intercepts, m.intercepts)
    queries = rng.normal(1.0, 2.0, size=(300, 3))
    assert np.array_equal(predict_lda(back, queries), predict_lda(m, queries))


def test_svm_round_trip(tmp_path):
    rng = np.random.default_rng(74)
    X, y = _two_class_data(rng)
    m = train_csvm(X, y, WIDE, 1.5)
    save_model(m, tmp_path / "s.txt")
    back = load_model(tmp_path / "s.txt")
    assert isinstance(back, SvmModel)
    assert back.kernel == m.kernel
    assert back.C_svm == m.C_svm
    assert back.bias == m.bias
    assert np.array_equal(back.betas, m.betas)
    assert np.array_equal(back.labels, m.labels)
    assert np.array_equal(back.X_sv, m.X_sv)
    queries = rng.normal(1.0, 2.0, size=(300, 3))
    assert np.array_equal(predict_csvm(back, queries), predict_csvm(m, queries))


def test_models_with_norm_stats_round_trip(tmp_path):
    """Prediction must work on raw feature scales after a reload, because the
    scaling parameters travel inside the file."""
    rng = np.random.default_rng(75)
    X = np.vstack([rng.normal(0.0, 1.0, size=(20, 2)),
                   rng.normal(300.0, 40.0, size=(20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    queries = np.vstack([rng.normal(0.0, 1.0, size=(50, 2)),
                         rng.normal(300.0, 40.0, size=(50, 2))])

    pairs = [
        (train_gnb(X, y, stats), predict_gnb),
        (train_lda(X, y, stats), predict_lda),
        (train_csvm(X, y, WIDE, 1.0, norm_stats=stats), predict_csvm),
        (train(X[:20], SvddTrainConfig(kernel=WIDE, C=0.5), stats), predict),
    ]
    for i, (model, predict_fn) in enumerate(pairs):
        path = tmp_path / f"m{i}.txt"
        save_model(model, path)
        assert np.array_equal(predict_fn(load_model(path), queries),
                              predict_fn(model, queries))


def test_unknown_tag_rejected(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("SOME-OTHER-MODEL v9\nC=1\n", encoding="utf-8")
    with pytest.raises(MalformedFile):
        load_model(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedFile):
        load_model(path)


def test_undecodable_file_rejected(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("GNB-MODEL v1\npriors=0.5,0.5 # \xe9\n".encode("latin-1"))
    with pytest.raises(MalformedFile, match="latin1.txt: not UTF-8 text"):
        load_model(path)


def test_truncated_svdd_file_rejected(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("SVDD-MODEL v1\nkernel=gaussian width=2.0\nC=0.5\n", encoding="utf-8")
    with pytest.raises(MalformedFile):
        load_model(path)


def _swap_first(text, prefix, new_line):
    lines = text.split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    return "\n".join(lines[:i] + [new_line] + lines[i + 1:])


def _widen(text):
    return text.replace(" x=", " x=0,")


# (model, edit of the saved text, what the error says). Each vector must have
# the model's width and every number must be finite, so a bad file fails at
# load rather than in predict.
_MALFORMED = {
    "svdd-one-vector-too-wide": ("svdd", lambda t: _swap_first(t, "alpha=", "alpha=0.1 x=1,2,3"), "alpha"),
    "svdd-vectors-wider-than-norm": ("svdd", _widen, "alpha"),
    "svm-vectors-wider-than-norm": ("svm", _widen, "beta"),
    "svm-line-missing-a-key": ("svm", lambda t: _swap_first(t, "beta=", "beta=0.5 x=0,0"), "beta"),
    "lda-cov-row-too-wide": ("lda", lambda t: _swap_first(t, "cov=", "cov=1,0,0"), "cov"),
    "lda-cov-row-too-narrow": ("lda", lambda t: _swap_first(t, "cov=", "cov=1"), "cov"),
    "lda-cov-row-missing": ("lda", lambda t: _swap_first(t, "cov=", ""), "cov"),
    "token-without-equals": ("lda", lambda t: _swap_first(t, "priors=", "priors 0.5,0.5"),
                             "expected key=value tokens"),
    "value-not-a-number": ("svm", lambda t: _swap_first(t, "bias=", "bias=high"),
                           "'bias' lines: could not convert"),
    "svdd-no-alpha-lines": ("svdd", lambda t: "\n".join(ln for ln in t.split("\n")
                                                        if not ln.startswith("alpha=")),
                            "no stored vectors"),
    "kernel-line-garbled": ("svdd", lambda t: _swap_first(t, "kernel=", "kernel=gaussian wide=2"),
                            "bad kernel line"),
    "kernel-offset-inf": ("svdd", lambda t: _swap_first(t, "kernel=", "kernel=polynomial degree=2 offset=inf"),
                          "bad kernel line"),
    "kernel-width-nan": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=nan"),
                         "bad kernel line"),
    "kernel-width-underflows": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=1e-200"),
                                "bad kernel line"),
    "kernel-width-square-subnormal": ("svdd", lambda t: _swap_first(t, "kernel=", "kernel=erbf width=1e-155"),
                                      "bad kernel line"),
    "kernel-line-extra-fields": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=2.0 degree=3"),
                                 r"unexpected kernel fields \['degree'\]"),
    "tag-only": ("svdd", lambda t: t.split("\n")[0] + "\n", "truncated model"),
    "svdd-r2-nan": ("svdd", lambda t: _swap_first(t, "r2=", "r2=nan"), "'r2' holds a NaN or an infinite value"),
    "svm-bias-inf": ("svm", lambda t: _swap_first(t, "bias=", "bias=inf"), "'bias' holds a NaN or an infinite value"),
    "svdd-nan-in-a-vector": ("svdd", lambda t: re.sub(r" x=[^,]*", " x=nan", t, count=1),
                             "'x' holds a NaN or an infinite value"),
    "gnb-var-low-nan": ("gnb", lambda t: re.sub(r"(var_low=[^,]*),[^\n]*", r"\1,nan", t),
                        "'var_low' holds a NaN or an infinite value"),
    # values no trainer writes, one case per field kind and bound
    "svdd-norm-std-zero": ("svdd", lambda t: re.sub(r"norm_std=[^,\n]*", "norm_std=0", t),
                           r"'norm_std' holds a value outside \(0.0, inf\)"),
    "svm-norm-std-negative": ("svm", lambda t: re.sub(r"norm_std=[^,\n]*", "norm_std=-1", t),
                              r"'norm_std' holds a value outside \(0.0, inf\)"),
    "gnb-prior-zero": ("gnb", lambda t: _swap_first(t, "priors=", "priors=0,1"),
                       r"'priors' holds a value outside \(0.0, 1.0\)"),
    "lda-prior-above-one": ("lda", lambda t: _swap_first(t, "priors=", "priors=1.5,-0.5"),
                            r"'priors' holds a value outside \(0.0, 1.0\)"),
    "gnb-var-low-zero": ("gnb", lambda t: re.sub(r"var_low=[^,\n]*", "var_low=0", t),
                         r"'var_low' holds a value outside \(0.0, inf\)"),
    "gnb-var-high-negative": ("gnb", lambda t: re.sub(r"var_high=[^,\n]*", "var_high=-1", t),
                              r"'var_high' holds a value outside \(0.0, inf\)"),
}


def test_save_of_an_unknown_type_rejected(tmp_path):
    with pytest.raises(TypeError, match="cannot persist NormStats"):
        save_model(NormStats.identity(2), tmp_path / "m.txt")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_vector_lines_rejected(tmp_path, case):
    kind, edit, key = _MALFORMED[case]
    m, repeats = _fitted(kind)
    assert repeats > 0 or kind == "gnb"  # a GNB file repeats no line
    path = tmp_path / "m.txt"
    save_model(m, path)
    text = path.read_text(encoding="utf-8")
    assert edit(text) != text
    path.write_text(edit(text), encoding="utf-8")
    with pytest.raises(MalformedFile, match=key):
        load_model(path)
