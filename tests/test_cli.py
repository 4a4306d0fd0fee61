import contextlib
import csv
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import welldesc
import welldesc.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SMALL_SYNTH = ["--wells", "2", "--rows", "40", "--skew", "0.9", "--features", "4"]


def cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "welldesc", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


def synth_small(tmp_path, seed="1"):
    r = cli("synth", "--seed", seed, *SMALL_SYNTH, "--out", ".", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path / "synthetic.csv"


def rows_of(path):
    return path.read_text().strip().split("\n")[1:]


def prepare_in_process(tmp_path):
    for argv in (["synth", *SMALL_SYNTH], ["prepare", "--input", str(tmp_path / "synthetic.csv")]):
        assert welldesc.cli.main([*argv, "--out", str(tmp_path)]) == 0
    return tmp_path / "prepared.csv"


# Names that perfbench's tracer and model capture swap on welldesc.cli.
PER_SPLIT = ("svdd_train", "svdd_predict", "train_csvm", "predict_csvm",
             "train_gnb", "predict_gnb", "train_lda", "predict_lda")
SWAPPED = (*PER_SPLIT, "relief_weights", "select_top", "save_model")


def count_calls(monkeypatch):
    """Replace every SWAPPED name on welldesc.cli by a wrapper that counts its calls."""
    calls = Counter()
    for name in SWAPPED:
        def wrapper(*args, _fn=getattr(welldesc.cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(welldesc.cli, name, wrapper)
    return calls


# -------------------------------------------------------------------- synth

def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    synth_small(a, seed="5")
    synth_small(b, seed="5")
    assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()


def test_synth_seed_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    synth_small(a, seed="5")
    synth_small(b, seed="6")
    assert (a / "synthetic.csv").read_bytes() != (b / "synthetic.csv").read_bytes()


def test_synth_default_shape(tmp_path):
    r = cli("synth", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    rows = rows_of(tmp_path / "synthetic.csv")
    assert len(rows) == 2000                      # 4 wells x 500 rows
    assert {row.split(",")[0] for row in rows} == {"A", "B", "C", "D"}


def test_synth_invalid_skew(tmp_path):
    r = cli("synth", "--skew", "1.5", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_synth_negative_seed_exits_two(tmp_path):
    r = cli("synth", "--seed", "-1", *SMALL_SYNTH, "--out", ".", cwd=tmp_path)
    assert r.returncode == 2
    assert "error:" in r.stderr and "seed" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "synthetic.csv").exists()


@pytest.mark.parametrize("flag", ["--rows", "--features"])
def test_synth_oversized_table_exits_two(tmp_path, capsys, flag):
    """A table too large to allocate is refused by the cell cap, not left to
    escape as a MemoryError."""
    code = welldesc.cli.main(["synth", flag, "1000000000000", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "over the cap of 10,000,000 cells" in err
    assert not (tmp_path / "synthetic.csv").exists()


@pytest.mark.parametrize("command", ["prepare", "features", "run"])
def test_seed_is_a_synth_flag_only(command, capsys):
    """Only synth draws random numbers; a seed= config line stays accepted."""
    with pytest.raises(SystemExit) as exc:
        welldesc.cli.build_parser().parse_args([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# ------------------------------------------------------------------ prepare

def test_prepare_preserves_clean_rows_and_reports_balance(tmp_path):
    synth_small(tmp_path)
    r = cli("prepare", "--input", "synthetic.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    assert len(rows_of(tmp_path / "prepared.csv")) == 80
    assert (tmp_path / "histogram.csv").exists()
    assert "Class high: 90.0%" in r.stdout
    assert "Class low: 10.0%" in r.stdout


def test_prepare_reports_strong_skew(tmp_path):
    r = cli("synth", "--wells", "2", "--rows", "500", "--skew", "0.97",
            "--features", "4", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    r = cli("prepare", "--input", "synthetic.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    assert "Class high: 97.0%" in r.stdout


def test_prepare_all_rows_missing(tmp_path):
    csv = tmp_path / "gaps.csv"
    csv.write_text("well,depth,f1,f2,sw\n"
                   "A,1,-999.25,2.0,0.5\n"
                   "A,2,,2.1,0.6\n", encoding="utf-8")
    r = cli("prepare", "--input", "gaps.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 3


@pytest.mark.parametrize("spacing", ["abc", "inf", "nan", "1e-300"])
def test_prepare_bad_spacing_exits_two(tmp_path, spacing):
    synth_small(tmp_path)
    r = cli("prepare", "--input", "synthetic.csv", "--spacing", spacing, "--out", ".",
            cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "spacing" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "prepared.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--bins", "0"], "need at least one bin"),
    (["--bins", "-1"], "need at least one bin"),
    (["--bins", "10000001"], "10,000,001 bins is over the cap of 10,000,000"),
    (["--bins", "1000000000000"], "1,000,000,000,000 bins is over the cap of 10,000,000"),
    (["--threshold", "1.5"], "threshold must lie in (0, 1), got 1.5"),
], ids=["0", "-1", "cap-plus-1", "1e12", "threshold"])
def test_prepare_bad_bins_writes_nothing(tmp_path, capsys, flags, message):
    """The histogram and the labels are made before any file is written."""
    assert welldesc.cli.main(["synth", *SMALL_SYNTH, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = welldesc.cli.main(["prepare", "--input", str(tmp_path / "synthetic.csv"),
                              *flags, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "prepared.csv").exists()
    assert not (tmp_path / "histogram.csv").exists()


def test_prepare_missing_input_file(tmp_path):
    r = cli("prepare", "--input", "nope.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


_TINY_TABLE = "well,depth,f1,f2,sw\nA,1,0.5,2.0,0.5\nA,2,0.6,2.1,0.9\nA,3,0.4,2.2,0.2\n"


@pytest.mark.parametrize("command, setup, message", [
    (["prepare", "--input", "latin1.csv"],
     lambda d: (d / "latin1.csv").write_bytes(_TINY_TABLE.replace("A,", "Puits \xe9,").encode("latin-1")),
     "latin1.csv: not UTF-8 text"),
    (["run", "--config", "latin1.cfg"],
     lambda d: (d / "latin1.cfg").write_bytes("# r\xe9glages\ncost=0.25\n".encode("latin-1")),
     "latin1.cfg: not UTF-8 text"),
    (["prepare", "--input", "folder"], lambda d: (d / "folder").mkdir(), "Is a directory"),
    (["synth", *SMALL_SYNTH, "--out", "taken"], lambda d: (d / "taken").write_text(""), "File exists"),
], ids=["input-not-utf8", "config-not-utf8", "input-is-directory", "out-is-file"])
def test_unreadable_path_exits_two(tmp_path, command, setup, message):
    """A path that cannot be read or made is an input error, not a traceback."""
    setup(tmp_path)
    r = cli(*command, cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr


def test_prepare_reads_byte_order_mark(tmp_path):
    """A spreadsheet's UTF-8 export starts with a byte-order mark; it is not part of 'well'."""
    (tmp_path / "plain").mkdir()
    (tmp_path / "marked").mkdir()
    (tmp_path / "plain" / "t.csv").write_text(_TINY_TABLE, encoding="utf-8")
    (tmp_path / "marked" / "t.csv").write_text(_TINY_TABLE, encoding="utf-8-sig")
    for d in ("plain", "marked"):
        r = cli("prepare", "--input", "t.csv", "--out", ".", cwd=tmp_path / d)
        assert r.returncode == 0, r.stderr
    assert ((tmp_path / "marked" / "prepared.csv").read_bytes()
            == (tmp_path / "plain" / "prepared.csv").read_bytes())


@pytest.mark.parametrize("bad_row, message", [
    ("A,3,oops,2.2,0.6", "line 4, column 'f1': cannot parse 'oops'"),
    ("A,3,0.4", "line 4 has 3 cells, expected 5"),
    ("A,2,0.4,2.2,0.6", "well 'A' repeats depth 2.0"),   # names the well, not a line
    ("A,3,0.4,2.2,1.5", "line 4: target 1.5 outside [0, 1]"),
    ("A,inf,0.4,2.2,0.6", "well 'A' has a non-finite depth"),
], ids=["non-numeric-cell", "short-row", "repeated-depth", "target-out-of-range",
        "infinite-depth"])
def test_prepare_ingest_error_exits_two(tmp_path, bad_row, message):
    csv = tmp_path / "bad.csv"
    csv.write_text("well,depth,f1,f2,sw\nA,1,0.5,2.0,0.5\nA,2,0.6,2.1,0.9\n"
                   + bad_row + "\nA,4,0.7,2.3,0.8\n", encoding="utf-8")
    r = cli("prepare", "--input", "bad.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr


def test_prepare_cell_over_the_csv_field_limit_exits_two(tmp_path, capsys):
    """A blank cell sends the file down the csv path, whose reader refuses a
    well id over its 131,072-character field limit."""
    path = tmp_path / "long.csv"
    path.write_text("well,depth,f1,f2,sw\nA,1,0.5,,0.5\n" + "W" * 131_073 + ",2,0.6,2.1,0.9\n",
                    encoding="utf-8")
    code = welldesc.cli.main(["prepare", "--input", str(path), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 3: field larger than field limit (131072)\n"


# ----------------------------------------------------------------- features

def test_features_outputs_sorted_weights(tmp_path):
    prepare_in_process(tmp_path)
    r = cli("features", "--input", "prepared.csv", "--relief-k", "2",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    weights = [float(row.split(",")[1])
               for row in rows_of(tmp_path / "relief_weights.csv")]
    assert weights == sorted(weights, reverse=True)
    selected = (tmp_path / "selected_features.txt").read_text().split()
    assert len(selected) == 2


def test_features_k_larger_than_feature_count(tmp_path):
    prepare_in_process(tmp_path)
    r = cli("features", "--input", "prepared.csv", "--relief-k", "9",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


def test_selection_leaves_the_dataset_as_it_is(tmp_path):
    """run_blind_tests uses the selected columns without rewriting the
    caller's dataset, and select_features picks what `features` lists."""
    prepared = prepare_in_process(tmp_path)
    assert welldesc.cli.main(["features", "--input", str(prepared), "--relief-k", "2",
                              "--out", str(tmp_path)]) == 0
    labeled = welldesc.cli._load_labeled(welldesc.cli.Settings(input=str(prepared)))
    X, names = labeled.X.copy(), list(labeled.feature_names)
    _, top = welldesc.cli.select_features(labeled, 2)
    listed = (tmp_path / "selected_features.txt").read_text(encoding="utf-8").split()
    assert [names[i] for i in top] == listed
    _, failed = welldesc.cli.run_blind_tests(labeled, welldesc.KernelSpec(width=2.0), 0.25,
                                             relief_k=2)
    assert not failed
    assert labeled.feature_names == names
    assert labeled.X.tobytes() == X.tobytes() and labeled.X.shape == X.shape


# ---------------------------------------------------------------------- run

def run_small(tmp_path, *extra):
    prepare_in_process(tmp_path)
    return cli("run", "--input", "prepared.csv", "--cost", "0.25",
               "--relief-k", "2", "--out", ".", *extra, cwd=tmp_path)


def test_run_report_shape_and_models(tmp_path):
    r = run_small(tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    # header + 4 classifiers x (2 wells + average)
    assert len(lines) == 1 + 4 * 3
    assert lines[0].startswith("classifier,well,")
    for clf in ("svdd", "svm", "gnb", "lda"):
        for well in ("A", "B"):
            assert (tmp_path / f"model_{clf}_{well}.txt").exists()
        assert any(ln.startswith(f"{clf},average,") for ln in lines)


def test_run_with_unusual_well_ids(tmp_path):
    """A well id holding a `/`, a comma, a space, a non-ASCII letter or a `%`
    names one model file in --out, the id percent-encoded; every file loads
    again, and report.csv quotes the id that holds a comma."""
    table = welldesc.load_table(prepare_in_process(tmp_path))
    names = {"A": "15/9-F-11 B", "B": "W,1 é%"}
    table.well_ids = np.array([names[w] for w in table.well_ids.tolist()])
    welldesc.write_table(table, tmp_path / "odd.csv")
    out = tmp_path / "out"
    assert welldesc.cli.main(["run", "--input", str(tmp_path / "odd.csv"), "--cost", "0.25",
                              "--relief-k", "2", "--out", str(out)]) == 0
    encoded = ("15%2F9-F-11%20B", "W%2C1%20%C3%A9%25")
    want = {f"model_{clf}_{well}.txt" for clf in ("svdd", "svm", "gnb", "lda") for well in encoded}
    assert {path.name for path in out.iterdir()} == want | {"report.csv"}
    for name in want:
        welldesc.load_model(out / name)
    rows = list(csv.reader((out / "report.csv").read_text(encoding="utf-8").splitlines()))
    assert {len(row) for row in rows} == {7}
    assert [row[1] for row in rows[1:4]] == [*names.values(), "average"]


def test_run_subset_of_classifiers_and_wells(tmp_path):
    r = run_small(tmp_path, "--classifiers", "svdd,gnb", "--test-wells", "B")
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2        # two classifiers x (well B + average)
    assert not (tmp_path / "model_svm_B.txt").exists()


def test_run_single_well_rejected(tmp_path):
    r = cli("synth", "--wells", "1", "--rows", "40", "--skew", "0.9",
            "--features", "4", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    r = cli("prepare", "--input", "synthetic.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    r = cli("run", "--input", "prepared.csv", "--cost", "0.25",
            "--relief-k", "2", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


def test_run_unknown_classifier(tmp_path):
    r = run_small(tmp_path, "--classifiers", "svdd,forest")
    assert r.returncode == 2


def test_run_unknown_test_well(tmp_path):
    """An unknown --test-wells name fails before Relief runs."""
    r = run_small(tmp_path, "--test-wells", "Z")
    assert r.returncode == 2
    assert "unknown well 'Z'" in r.stderr and "Traceback" not in r.stderr
    assert "features:" not in r.stdout
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("extra", [
    ["--classifiers", "svdd,svdd"],
    ["--classifiers", "svdd, gnb,svdd"],
    ["--test-wells", "A,A"],
    ["--classifiers", "svdd,svdd", "--test-wells", "A,A"],
], ids=["classifier", "classifier-spaced", "well", "both"])
def test_run_repeated_name_rejected(tmp_path, extra):
    """A repeated name would write duplicate report rows that weight the average."""
    r = run_small(tmp_path, *extra)
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr
    assert not (tmp_path / "report.csv").exists()


def test_run_calls_every_swapped_name(tmp_path, monkeypatch, capsys):
    """Each trainer, predictor, Relief step and model save is reached through its
    welldesc.cli global at call time, so a wrapper put there sees every call."""
    prepared = prepare_in_process(tmp_path)
    calls = count_calls(monkeypatch)
    code = welldesc.cli.main(["run", "--input", str(prepared), "--cost", "0.25",
                              "--relief-k", "2", "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    splits = 2
    assert calls == {**{name: splits for name in PER_SPLIT}, "relief_weights": 1,
                     "select_top": 1, "save_model": 4 * splits}


def test_every_traced_name_exists():
    """perfbench's tracer looks up each (module, attribute) of its SPANNED and
    COUNTED tables with getattr, so a name dropped from the package breaks
    every traced benchmark pass. spans.py is loaded, not changed."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = [(module, attr) for module, attr, _ in (*spans.SPANNED, *spans.COUNTED)]
    assert wrapped
    missing = [f"{module.__name__}.{attr}" for module, attr in wrapped
               if not callable(getattr(module, attr, None))]
    assert not missing


@pytest.mark.parametrize("argv, message", [
    (["run", "--csvm-cost", "nan"], "C_svm must be positive and finite"),
    (["run", "--csvm-cost", "0"], "C_svm must be positive and finite"),
    (["run", "--csvm-cost", "-1", "--classifiers", "gnb"], "C_svm must be positive and finite"),
    (["run", "--csvm-cost", "inf"], "C_svm must be positive and finite"),
    (["run", "--relief-k", "9", "--cost", "0.25"], "relief_k must lie in [1, 4]"),
    (["features", "--relief-k", "9"], "relief_k must lie in [1, 4]"),
    (["features", "--relief-k", "0"], "relief_k must lie in [1, 4] for 4 features, got 0"),
    (["run", "--threshold", "1.5"], "threshold must lie in (0, 1), got 1.5"),
    (["run", "--classifiers", "svdd,forest"], "unknown classifier 'forest'"),
    (["run", "--test-wells", "A,Z"], "unknown well 'Z'"),
    (["run", "--classifiers", "gnb,gnb"], "a name repeats"),
    (["run", "--classifiers", " , "], "the classifier list is empty"),
    (["run", "--test-wells", ","], "the test well list is empty"),
    (["run", "--width", "1e-200"], "kernel width must be positive with a nonzero square"),
    (["run", "--width", "1e-155"], "kernel width must be positive with a nonzero square that is not subnormal"),
    (["run", "--width", "inf"], "kernel width must be positive with a nonzero square that is not subnormal"),
    (["run", "--kernel", "polynomial", "--offset", "inf"], "polynomial offset must be >= 0 and finite"),
    (["run", "--kernel", "foo"], "unknown kernel family 'foo'"),
    (["run", "--width", "abc"], "bad value 'abc' for width"),
], ids=["csvm-nan", "csvm-zero", "csvm-negative-unused", "csvm-inf", "run-k", "features-k",
        "features-k-zero", "threshold", "classifier", "well", "repeat", "classifier-empty",
        "well-empty", "width-underflow", "width-subnormal-square", "width-inf", "offset-inf",
        "kernel-unknown", "width-text"])
def test_bad_setting_fails_before_relief(tmp_path, monkeypatch, capsys, argv, message):
    prepared = prepare_in_process(tmp_path)
    capsys.readouterr()
    calls = count_calls(monkeypatch)
    code = welldesc.cli.main([*argv, "--input", str(prepared), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not calls and out == ""


@pytest.mark.parametrize("key, value, err", [
    ("kernel", "foo", "error: unknown kernel family 'foo'\n"),
    ("width", "abc", "error: bad value 'abc' for width\n"),
    ("degree", "2.5", "error: bad value '2.5' for degree\n"),
    ("max_passes", "none", ""),
    ("max_passes", "0", "error: max_passes must be at least 1, got 0\n"),
], ids=["kernel", "width", "degree", "max-passes", "max-passes-zero"])
def test_flag_and_config_line_are_read_alike(tmp_path, monkeypatch, capsys, key, value, err):
    """A flag and a config line go through one converter and one judge: the
    same exit code, the same stderr and, where the settings resolve, the same
    settings reach cmd_run."""
    prepared = prepare_in_process(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n", encoding="utf-8")
    calls = count_calls(monkeypatch)
    seen = []
    cmd_run = welldesc.cli.cmd_run
    monkeypatch.setattr(welldesc.cli, "cmd_run", lambda s: seen.append(s) or cmd_run(s))
    outcomes = []
    for given in (["--" + key.replace("_", "-"), value], ["--config", str(cfg)]):
        capsys.readouterr()
        code = welldesc.cli.main(["run", *given, "--classifiers", "svdd", "--test-wells", "A",
                                  "--cost", "0.5", "--input", str(prepared), "--out", str(tmp_path)])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [(2 if err else 0, err)] * 2
    assert seen[::2] == seen[1::2]  # both ways reach cmd_run with equal settings, or neither does
    assert calls["relief_weights"] == (0 if err else 2)
    if not err:
        assert seen[0].max_passes is None


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\nwell,depth,f1,sw\nA,1,0.5,0.5\n", "empty file"),
    ("well,depth,sw\nA,1,0.5\n", "need at least one feature column and a target column"),
    ("depth,f1,sw\n1,0.5,0.5\n", "missing column 'well'"),
    ("well,depth,f1,f1,sw\nA,1,0.5,0.6,0.5\n", "column 'f1' appears 2 times in the header"),
    # no data row is an empty input, not a table that cleaning emptied (exit 3)
    ("well,depth,f1,sw\n", "no data rows"),
    ("well,depth,f1,sw\n\n,,,\n , ,, \n", "no data rows"),
], ids=["empty", "blank-first-line", "no-feature-column", "no-well-column", "repeated-column",
        "header-only", "header-and-blank-lines"])
def test_run_header_error_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    code = welldesc.cli.main(["run", "--input", str(path), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# case -> (run flags, the warning raised on the way, the error's start).
# KernelSpec refuses an inf offset; (x.x + 1e300)^3 overflows in the solver.
_NON_FINITE_RUNS = {
    "offset-inf": (["--kernel", "polynomial", "--offset", "inf"], None,
                   "polynomial offset must be >= 0 and finite, got inf"),
    "offset-1e300": (["--kernel", "polynomial", "--offset", "1e300"], "overflow encountered in power",
                     "kernel values on the training rows are not finite"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_RUNS))
@pytest.mark.parametrize("classifier", ["svdd", "svm"])
def test_run_non_finite_kernel_exits_two(tmp_path, capsys, classifier, case):
    """A kernel that is inf or NaN on the training rows is an input error, not NaN models."""
    flags, warning, message = _NON_FINITE_RUNS[case]
    argv = ["run", "--input", str(prepare_in_process(tmp_path)), "--out", str(tmp_path), "--cost", "0.25",
            "--relief-k", "2", "--classifiers", classifier, *flags]
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match=warning) if warning else contextlib.nullcontext():
        code = welldesc.cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("model_*")) and not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("classifiers", ["svdd", "svm", "gnb,lda"])
def test_run_overflowing_scaling_exits_two(tmp_path, capsys, recwarn, classifiers):
    """f1 near 1e308 overflows the z-score fit: an input error naming the scaling, not NaN models."""
    rows = [f"{w},{i},{1 + i / 10}e308,{i % 3},{0.3 if i % 2 else 0.9}" for w in "AB" for i in range(8)]
    path = tmp_path / "huge.csv"
    path.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["run", "--input", str(path), "--out", str(tmp_path), "--cost", "0.25",
            "--relief-k", "2", "--classifiers", classifiers]
    code = welldesc.cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: feature scaling failed: column 0 has mean inf"), err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("model_*")) and not (tmp_path / "report.csv").exists()


def test_run_relief_k_too_large(tmp_path):
    prepare_in_process(tmp_path)
    r = cli("run", "--input", "prepared.csv", "--cost", "0.25",
            "--relief-k", "40", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


def test_run_infeasible_cost(tmp_path):
    # 4 minority training rows cannot reach the simplex with C = 0.05
    r = run_small(tmp_path, "--cost", "0.05")
    assert r.returncode == 2


def test_run_exit_five_on_nonconvergence(tmp_path):
    # one pair update cannot finish the SVM's 72-row problem; the report must
    # still carry the classifiers that did train
    r = run_small(tmp_path, "--max-passes", "1")
    assert r.returncode == 5
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert any(ln.startswith("svm,") and ln.endswith("NA,NA,NA,NA,NA")
               for ln in lines)
    assert any(ln.startswith("gnb,average,") and "NA" not in ln for ln in lines)


@pytest.mark.parametrize("passes", ["0", "-1"])
def test_run_max_passes_below_one_rejected(tmp_path, passes):
    r = run_small(tmp_path, "--max-passes", passes, "--classifiers", "svdd",
                  "--test-wells", "A")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "max_passes" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "report.csv").exists()


def test_run_no_external_minority(tmp_path):
    csv = tmp_path / "lopsided.csv"
    rows = [f"A,{i},0.{i}1,0.2,0.1" for i in range(1, 7)]
    rows += [f"B,{i},0.9,1.{i},0.9" for i in range(1, 7)]
    csv.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    r = cli("run", "--input", "lopsided.csv", "--cost", "0.25",
            "--relief-k", "2", cwd=tmp_path)
    assert r.returncode == 4


def test_held_out_well_without_minority_rows_reads_na(tmp_path, capsys):
    """Well C has no minority rows, so its sensitivity is undefined: its
    report rows read NA in the three metric cells and keep their timings, its
    models are written, and run exits 0."""
    csv = tmp_path / "no_minority_in_c.csv"
    rows = [f"{w},{i},0.{i}{k},0.{7 - i},{'0.1' if w != 'C' and i % 2 else '0.9'}"
            for k, w in enumerate("ABC") for i in range(1, 7)]
    csv.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code = welldesc.cli.main(["run", "--input", str(csv), "--cost", "0.5", "--relief-k", "2",
                              "--classifiers", "svdd,gnb", "--test-wells", "C,A",
                              "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    lines = (tmp_path / "report.csv").read_text().splitlines()
    for clf in ("svdd", "gnb"):
        cells = next(ln for ln in lines if ln.startswith(f"{clf},C,")).split(",")
        assert cells[2:5] == ["NA"] * 3 and "NA" not in cells[5:]
        average = next(ln for ln in lines if ln.startswith(f"{clf},average,")).split(",")
        assert "NA" not in average
        assert (tmp_path / f"model_{clf}_C.txt").exists()


def test_split_without_minority_exits_four_before_relief(tmp_path, monkeypatch, capsys):
    """Only well C has minority rows, so holding C out, the last split, leaves
    none to train on: run exits 4 before Relief and before the splits that
    could train write any model file."""
    csv = tmp_path / "one_minority_well.csv"
    rows = [f"{w},{i},0.{i}{k},0.{7 - i},{'0.1' if w == 'C' and i % 2 else '0.9'}"
            for k, w in enumerate("ABC") for i in range(1, 7)]
    csv.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    calls = count_calls(monkeypatch)
    code = welldesc.cli.main(["run", "--input", str(csv), "--cost", "0.5", "--relief-k", "2",
                              "--classifiers", "svdd,gnb", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 4 and err == "error: no LOW rows outside well 'C'\n"
    assert not calls and out == "" and not list(tmp_path.glob("model_*"))


def test_infeasible_cost_exits_two_before_relief(tmp_path, monkeypatch, capsys):
    """Each split of the walkthrough table trains on 45 minority rows, so
    C = 0.01 lies below 1/n: refused before Relief, by svdd.train's rule,
    when svdd runs, with the first held-out well named."""
    prepared = tmp_path / "prepared.csv"
    for argv in (["synth"], ["prepare", "--input", str(tmp_path / "synthetic.csv")]):
        assert welldesc.cli.main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    calls = count_calls(monkeypatch)
    code = welldesc.cli.main(["run", "--input", str(prepared), "--cost", "0.01",
                              "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and err.startswith("error: C=0.01 outside [1/n, 1] for n=")
    assert err == "error: C=0.01 outside [1/n, 1] for n=45, the minority rows outside held-out well 'A'\n"
    assert not calls and out == ""
    # a cost no hypersphere uses is not judged
    assert welldesc.cli.main(["run", "--input", str(prepared), "--cost", "0.01",
                              "--classifiers", "gnb", "--out", str(tmp_path)]) == 0


def test_run_all_features_constant(tmp_path):
    csv = tmp_path / "flat.csv"
    rows = [f"{w},{i},1.0,2.0,0.{i + 3}" for w in "AB" for i in range(1, 7)]
    csv.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    r = cli("run", "--input", "flat.csv", "--cost", "0.5",
            "--relief-k", "2", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "constant" in r.stderr
    assert "Traceback" not in r.stderr


def test_run_deterministic_apart_from_timings(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        r = run_small(d)
        assert r.returncode == 0
    strip = lambda p: [",".join(ln.split(",")[:5])
                       for ln in (p / "report.csv").read_text().strip().split("\n")]
    assert strip(a) == strip(b)
    assert (a / "model_svdd_A.txt").read_bytes() == (b / "model_svdd_A.txt").read_bytes()


def _pipeline(out, data):
    """prepare, features and run from data into out, in process."""
    prepared = str(out / "prepared.csv")
    for argv in (["prepare", "--input", str(data)],
                 ["features", "--input", prepared, "--relief-k", "2"],
                 ["run", "--input", prepared, "--cost", "0.25", "--relief-k", "2"]):
        assert welldesc.cli.main([*argv, "--out", str(out)]) == 0


def _outputs(out):
    """Every file in out by name; report.csv without its two timing columns."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["report.csv"] = [ln.split(b",")[:5] for ln in files["report.csv"].splitlines()]
    return files


def test_rerun_into_one_out_directory_writes_new_files(tmp_path):
    """A second pipeline into the same --out leaves what a fresh directory
    gets, every output a new file: a hard link to a first-run model keeps the
    first run's bytes, a symlink at an output path becomes a regular file
    and its target is left alone, and a read-only output is replaced."""
    data = synth_small(tmp_path)
    fresh, again = tmp_path / "fresh", tmp_path / "again"
    _pipeline(fresh, data)
    _pipeline(again, data)
    model = again / "model_svdd_A.txt"
    first = model.read_bytes()
    link = tmp_path / "linked.txt"
    os.link(model, link)
    target = tmp_path / "target.csv"
    target.write_text("target\n", encoding="utf-8")
    (again / "histogram.csv").unlink()
    (again / "histogram.csv").symlink_to(target)
    (again / "selected_features.txt").chmod(0o444)
    _pipeline(again, data)
    assert _outputs(again) == _outputs(fresh)
    assert link.read_bytes() == first and not link.samefile(model)
    assert not (again / "histogram.csv").is_symlink()
    assert target.read_text(encoding="utf-8") == "target\n"


def test_directory_at_an_output_path_exits_two(tmp_path):
    prepare_in_process(tmp_path)
    (tmp_path / "model_gnb_A.txt").mkdir()
    r = cli("run", "--input", "prepared.csv", "--classifiers", "gnb", "--relief-k", "2",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Is a directory" in r.stderr
    assert "Traceback" not in r.stderr


_WITHOUT_NUMPY_MA = """
import contextlib, io, sys
sys.modules["numpy.ma"] = None  # any import of it now raises, naming its caller
from pathlib import Path
import welldesc
from welldesc import cli

out, synth = Path(sys.argv[1]), sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["synth", *synth], ["prepare", "--input", str(out / "synthetic.csv")],
                 ["features", "--input", str(out / "prepared.csv"), "--relief-k", "2"],
                 ["run", "--input", str(out / "prepared.csv"), "--cost", "0.25",
                  "--relief-k", "2", "--classifiers", "svdd,svm,gnb,lda"]):
        assert cli.main([*argv, "--out", str(out)]) == 0, argv
data = welldesc.binarize_target(welldesc.resample_uniform(welldesc.drop_invalid(
    welldesc.load_table(out / "synthetic.csv"))))
X = data.X[:, [data.feature_names.index(f)
               for f in (out / "selected_features.txt").read_text().split()]]
for clf, predict in [("svdd", welldesc.predict), ("svm", welldesc.predict_csvm),
                     ("gnb", welldesc.predict_gnb), ("lda", welldesc.predict_lda)]:
    model = welldesc.load_model(out / f"model_{clf}_A.txt")
    welldesc.g_mean(welldesc.confusion(data.y, predict(model, X)))
assert sys.modules["numpy.ma"] is None
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """numpy.ma costs a process about 2 MB and 10 ms to import, and np.unique
    and np.median import it on first use. Neither synth, prepare, features and
    run nor the apply path (load, clean, resample, label, load the models,
    predict, score) may import it."""
    r = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY_MA, str(tmp_path), *SMALL_SYNTH],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr


# ------------------------------------------------------------------- config

def test_config_file_supplies_settings(tmp_path):
    prepare_in_process(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "# benchmark settings\n"
        "input=prepared.csv\n"
        "cost=0.25\n"
        "relief_k=2\n"
        "classifiers=gnb\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert all(ln.startswith("gnb,") for ln in lines[1:])


def test_flags_override_config_file(tmp_path):
    prepare_in_process(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "input=prepared.csv\ncost=0.25\nrelief_k=2\nclassifiers=gnb\n",
        encoding="utf-8")
    r = cli("run", "--config", "run.cfg", "--classifiers", "lda",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert all(ln.startswith("lda,") for ln in lines[1:])


def test_config_file_with_a_byte_order_mark(tmp_path):
    """Windows editors often start a UTF-8 file with a byte-order mark."""
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("threshold=0.6\n", encoding="utf-8-sig")
    assert welldesc.cli.read_config_file(cfg) == {"threshold": 0.6}


def test_config_line_without_equals_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\ncost 0.1\n", encoding="utf-8")
    with pytest.raises(welldesc.errors.InvalidConfig,
                       match=r"run.cfg:2: expected key=value, got 'cost 0.1'"):
        welldesc.cli.read_config_file(cfg)


def test_run_without_input_exits_two(tmp_path, capsys):
    code = welldesc.cli.main(["run", "--out", str(tmp_path)])
    assert (code, capsys.readouterr().err) == (
        2, "error: no input file; pass --input or set input= in the config\n")


def test_config_unknown_key_rejected(tmp_path):
    prepare_in_process(tmp_path)
    (tmp_path / "run.cfg").write_text("inptu=prepared.csv\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2


def test_config_values_cast_by_annotation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nwidth=1.5\nmax_passes=none\nrelief_k=3\n"
                   "input=t.csv\nspacing=AUTO\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {
        "seed": 7, "width": 1.5, "max_passes": None, "relief_k": 3,
        "input": "t.csv", "spacing": None}
    cfg.write_text("max_passes=12\nspacing=0.5\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {"max_passes": 12, "spacing": 0.5}
    for word in ("", "None", "auto", "AUTO"):
        cfg.write_text(f"max_passes={word}\nspacing={word}\n", encoding="utf-8")
        assert welldesc.cli.read_config_file(cfg) == {"max_passes": None, "spacing": None}


def test_config_bad_value_rejected(tmp_path):
    prepare_in_process(tmp_path)
    (tmp_path / "run.cfg").write_text("cost=lots\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("gap", [" ", "\t", "  \t"], ids=["space", "tab", "mixed"])
def test_config_comment_after_whitespace_is_stripped(tmp_path, gap):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"cost=0.1{gap}# note\nkernel=gaussian{gap}#note\nout=runs/a{gap}# where\n"
                   f"test_wells=A,B{gap}#\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {
        "cost": 0.1, "kernel": "gaussian", "out": "runs/a", "test_wells": "A,B"}


def test_config_hash_glued_to_a_value_is_part_of_it(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out=run#2\ninput=a#b.csv # the table\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {"out": "run#2", "input": "a#b.csv"}
    cfg.write_text("cost=0.1#note\n", encoding="utf-8")
    with pytest.raises(welldesc.errors.InvalidConfig, match="bad value '0.1#note'"):
        welldesc.cli.read_config_file(cfg)
