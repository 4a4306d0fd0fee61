import re
import warnings

import numpy as np
import pytest

from welldesc import (
    KernelSpec,
    NormStats,
    decide,
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
from welldesc.persist import _kernel, _kernel_line
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
    m = train(X, WIDE, 0.3, norm_stats=stats)
    path = tmp_path / "m.txt"
    save_model(m, path)
    back = load_model(path)

    # the file keeps the rows with nonzero alpha, in training order: the
    # only ones that score
    live = m.alphas != 0.0
    assert 0 < live.sum() < live.size
    assert isinstance(back, SvddModel)
    assert back.kernel == m.kernel
    assert back.C == m.C
    assert back.r2 == m.r2
    assert np.array_equal(back.alphas, m.alphas[live])
    assert np.array_equal(back.X_train, m.X_train[live])
    assert np.array_equal(back.norm_stats.mean, m.norm_stats.mean)
    assert back.self_term == m.self_term

    queries = rng.normal(size=(200, 3)) * 3.0
    assert np.array_equal(predict(back, queries), predict(m, queries))
    for q in queries[:20]:
        assert radius2_of(back, q) == radius2_of(m, q)
        assert decide(back, q) == decide(m, q)


def _v1_text(m) -> str:
    """An SVDD-MODEL v1 file of m, as earlier versions wrote it: every
    training row, and no self_term line."""
    def fmt(values):
        return ",".join(f"{v:.17g}" for v in np.ravel(values))

    lines = ["SVDD-MODEL v1", _kernel_line(m.kernel), f"C={fmt(m.C)}", f"r2={fmt(m.r2)}",
             f"norm_mean={fmt(m.norm_stats.mean)}", f"norm_std={fmt(m.norm_stats.std)}",
             *(f"alpha={fmt(a)} x={fmt(x)}" for a, x in zip(m.alphas, m.X_train))]
    return "\n".join(lines) + "\n"


def test_svdd_v1_file_still_loads_bit_exactly(tmp_path):
    """A v1 file stores every training row; loading recomputes self_term
    through a Gram, and every score matches the in-memory model's bits."""
    rng = np.random.default_rng(77)
    X = rng.normal(size=(40, 3))
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    m = train(X, WIDE, 0.2, norm_stats=stats)
    assert (m.alphas == 0.0).any()
    path = tmp_path / "v1.txt"
    path.write_text(_v1_text(m), encoding="utf-8")
    back = load_model(path)

    assert np.array_equal(back.alphas, m.alphas) and np.array_equal(back.X_train, m.X_train)
    assert back.self_term == m.self_term and back.r2 == m.r2
    queries = rng.normal(size=(300, 3)) * 2.0
    assert np.array_equal(predict(back, queries), predict(m, queries))
    for q in queries[:40]:
        assert radius2_of(back, q) == radius2_of(m, q)
        assert decide(back, q) == decide(m, q)


def test_vector_lines_are_the_per_value_lines(tmp_path):
    """The row template writes each number as f"{v:.17g}" does; an SVDD file
    holds v1's lines of the nonzero-alpha rows, in training order."""
    rng = np.random.default_rng(78)
    X, y = _two_class_data(rng, n=40)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    m = train(X[:20], WIDE, 0.2, norm_stats=stats)
    save_model(m, tmp_path / "d.txt")
    v1_vectors = [ln for ln in _v1_text(m).split("\n") if ln.startswith("alpha=")]
    want = [ln for ln in v1_vectors if not ln.startswith(("alpha=0 ", "alpha=-0 "))]
    assert len(want) < len(v1_vectors)
    got = (tmp_path / "d.txt").read_text(encoding="utf-8").split("\n")
    assert [ln for ln in got if ln.startswith("alpha=")] == want

    svm = train_csvm(X, y, WIDE, 1.0, norm_stats=stats)
    save_model(svm, tmp_path / "s.txt")
    got = (tmp_path / "s.txt").read_text(encoding="utf-8").split("\n")
    assert [ln for ln in got if ln.startswith("beta=")] == [
        f"beta={b:.17g} y={v:.17g} x=" + ",".join(f"{c:.17g}" for c in x)
        for b, v, x in zip(svm.betas, svm.labels, svm.X_sv)]


@pytest.mark.parametrize("edit", ["missing", "repeated"])
def test_svdd_v2_needs_one_self_term_line(tmp_path, edit):
    m, _ = _fitted("svdd")
    path = tmp_path / "m.txt"
    save_model(m, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith("self_term="))
    lines[i:i + 1] = [] if edit == "missing" else [lines[i]] * 2
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedFile, match="expected 1 'self_term' line"):
        load_model(path)


# The tag and line keys of each format in file order; "*" marks a line
# repeated once per stored vector (SVDD: those with nonzero alpha; SVM) or
# per covariance row (LDA).
_FORMAT_KEYS = {
    "svdd": ["SVDD-MODEL v2", "kernel width", "C", "r2", "self_term", "norm_mean", "norm_std",
             "*alpha x"],
    "svm": ["SVM-MODEL v1", "kernel width", "C_svm", "bias", "norm_mean", "norm_std", "*beta y x"],
    "gnb": ["GNB-MODEL v1", "priors", "mean_low", "var_low", "mean_high", "var_high",
            "norm_mean", "norm_std"],
    "lda": ["LDA-MODEL v1", "priors", "mean_low", "mean_high", "norm_mean", "norm_std", "*cov"],
}


def _fitted(kind):
    rng = np.random.default_rng(76)
    X, y = _two_class_data(rng, n=20, d=2)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    if kind == "svdd":
        m = train(X[:10], WIDE, 0.5, norm_stats=stats)
        return m, int(np.count_nonzero(m.alphas))
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
    assert lines[0] == _FORMAT_KEYS[kind][0]
    want = []
    for keys in _FORMAT_KEYS[kind][1:]:
        want += [keys[1:]] * repeats if keys.startswith("*") else [keys]
    assert [" ".join(tok.partition("=")[0] for tok in ln.split(" ")) for ln in lines[1:]] == want
    if kind in ("svdd", "svm"):
        assert lines[1] == "kernel=gaussian width=2.0"
    if kind == "svdd":
        assert lines[2] == "C=0.5"
        assert lines[4] == f"self_term={m.self_term:.17g}"
        assert repeats < m.alphas.size
    if kind == "lda":
        assert lines[-2:] == [f"cov={','.join(f'{v:.17g}' for v in row)}" for row in m.cov]


def test_kernel_line_round_trip():
    for spec in (KernelSpec(width=2.0),
                 KernelSpec(family="erbf", width=0.25),
                 KernelSpec(family="polynomial", degree=5, offset=1.5)):
        assert _kernel(_kernel_line(spec), "m.txt") == spec


def test_kernel_line_format_is_stable():
    assert _kernel_line(KernelSpec(width=2.0)) == "kernel=gaussian width=2.0"
    assert (_kernel_line(KernelSpec(family="polynomial", degree=3, offset=1.0))
            == "kernel=polynomial degree=3 offset=1.0")


def test_kernel_line_rejects_garbage():
    with pytest.raises(MalformedFile, match="^m.txt: bad kernel line .*unknown kernel family 'unknown'"):
        _kernel("kernel=unknown width=1.0", "m.txt")
    with pytest.raises(MalformedFile, match="^m.txt: expected key=value tokens"):
        _kernel("no equals signs here", "m.txt")


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
        (train(X[:20], WIDE, 0.5, norm_stats=stats), predict),
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
    for tag in ("SVDD-MODEL v1", "SVDD-MODEL v2"):
        path.write_text(f"{tag}\nkernel=gaussian width=2.0\nC=0.5\n", encoding="utf-8")
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
    "kernel-width-inf": ("svdd", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=inf"),
                         "bad kernel line"),
    "kernel-line-extra-fields": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=2.0 degree=3"),
                                 r"unexpected kernel fields \['degree'\]"),
    # the kernel line takes each key once, in the order _kernel_line writes them
    "kernel-key-repeated": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width=1 width=3"),
                            r"unexpected kernel fields \['width'\]"),
    "kernel-polynomial-key-repeated": ("svdd", lambda t: _swap_first(
        t, "kernel=", "kernel=polynomial degree=2 degree=3 offset=1.0"), "bad kernel line"),
    "kernel-keys-reordered": ("svdd", lambda t: _swap_first(t, "kernel=", "width=2.0 kernel=gaussian"),
                              "bad kernel line"),
    "kernel-polynomial-keys-reordered": ("svm", lambda t: _swap_first(
        t, "kernel=", "kernel=polynomial offset=1.0 degree=2"), "bad kernel line"),
    "kernel-degree-not-an-integer": ("svdd", lambda t: _swap_first(
        t, "kernel=", "kernel=polynomial degree=2.0 offset=1.0"), "bad kernel line .*invalid literal for int"),
    "kernel-token-without-equals": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussian width 2.0"),
                                    "expected key=value tokens"),
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
    "svdd-norm-std-square-subnormal": ("svdd", lambda t: re.sub(r"norm_std=[^,\n]*", "norm_std=1e-160", t),
                                       "'norm_std' holds a value whose square is subnormal"),
    # the solvers' constraints: sum(alpha) = 1 over alpha >= 0; sum(beta * y) = 0
    # over beta > 0 and y = +-1
    "svdd-alpha-negative": ("svdd", lambda t: re.sub(r"alpha=[^ ]*", "alpha=-0.5", t, count=1),
                            "'alpha' weights must be >= 0 and sum to 1"),
    "svdd-alphas-sum-above-one": ("svdd", lambda t: re.sub(r"alpha=[^ ]*", "alpha=0.99", t, count=1),
                                  "'alpha' weights must be >= 0 and sum to 1"),
    "svdd-alphas-sum-overflows": ("svdd", lambda t: re.sub(r"alpha=[^ ]*", "alpha=1e308", t),
                                  "'alpha' weights must be >= 0 and sum to 1"),
    "svm-label-not-one": ("svm", lambda t: re.sub(r" y=[^ ]*", " y=2", t, count=1),
                          "'y' labels must be 1 or -1"),
    "svm-beta-zero": ("svm", lambda t: re.sub(r"beta=[^ ]*", "beta=0", t, count=1),
                      "'beta' weights must be positive"),
    "svm-betas-unbalanced": ("svm", lambda t: re.sub(r"beta=[^ ]*", "beta=0.123", t, count=1),
                             r"sum\(beta \* y\) = 0"),
    "svm-betas-sum-overflows": ("svm", lambda t: re.sub(r"beta=[^ ]*", "beta=1e308", t),
                                r"sum\(beta \* y\) = 0"),
    "lda-cov-asymmetric": ("lda", lambda t: _swap_first(t, "cov=", "cov=1,0.5"), "'cov' is not symmetric"),
    "lda-cov-not-positive-definite": ("lda", lambda t: re.sub(r"cov=[^\n]*\ncov=[^\n]*", "cov=1,2\ncov=2,1", t),
                                      "'cov' is not positive definite"),
    "lda-discriminant-overflows": ("lda", lambda t: re.sub(r"mean_low=[^,]*", "mean_low=1e308", t),
                                   "'cov' and the means give a discriminant that is not finite"),
    "kernel-family-unknown": ("svm", lambda t: _swap_first(t, "kernel=", "kernel=gaussien width=2.0"),
                              "bad kernel line .*unknown kernel family 'gaussien'"),
    "kernel-width-negative": ("svdd", lambda t: _swap_first(t, "kernel=", "kernel=erbf width=-2.0"),
                              "bad kernel line .*kernel width must be positive"),
}


def _overflowing_margin(text):
    """The first vector of each label weighted 8e307 (their sum stays finite
    and balanced) and the bias 1.5e308, so margins overflow."""
    lines = text.split("\n")
    for label in ("1", "-1"):
        i = next(i for i, ln in enumerate(lines) if f" y={label} " in ln)
        lines[i] = re.sub(r"beta=\S*", "beta=8e307", lines[i])
    return re.sub(r"bias=\S*", "bias=1.5e308", "\n".join(lines))


# (model, edit of the saved text) of files that load, though no trainer writes
# them, and whose prediction overflows: each must predict without a warning
_EXTREME_BUT_VALID = {
    "svdd-r2-and-self-term-far-apart": ("svdd", lambda t: re.sub(
        r"self_term=\S*", "self_term=-1e308", re.sub(r"r2=\S*", "r2=1e308", t))),
    "gnb-var-high-near-zero": ("gnb", lambda t: re.sub(r"var_high=[^,\n]*", "var_high=5e-324", t)),
    "gnb-mean-low-huge": ("gnb", lambda t: re.sub(r"mean_low=[^,\n]*", "mean_low=1e200", t)),
    "svm-margin-overflows": ("svm", lambda t: _overflowing_margin(t)),
}
_PREDICT = {"svdd": predict, "svm": predict_csvm, "gnb": predict_gnb}


@pytest.mark.parametrize("case", list(_EXTREME_BUT_VALID))
def test_extreme_values_predict_without_warnings(tmp_path, case):
    """R^2 - r2 and a GNB log-likelihood term may overflow; their infinite
    values keep the side and the limit the label needs, so they are silent."""
    kind, edit = _EXTREME_BUT_VALID[case]
    m, _ = _fitted(kind)
    path = tmp_path / "m.txt"
    save_model(m, path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    back = load_model(path)
    queries = np.random.default_rng(79).normal(size=(50, 2)) * 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = _PREDICT[kind](back, queries)
    assert labels.shape == (50,)


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
    with pytest.raises(MalformedFile, match=key) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")
