import contextlib
import importlib.util
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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


def prepare_small(tmp_path, seed="1"):
    synth_small(tmp_path, seed)
    r = cli("prepare", "--input", "synthetic.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    return tmp_path / "prepared.csv"


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
    prepare_small(tmp_path)
    r = cli("features", "--input", "prepared.csv", "--relief-k", "2",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 0
    weights = [float(row.split(",")[1])
               for row in rows_of(tmp_path / "relief_weights.csv")]
    assert weights == sorted(weights, reverse=True)
    selected = (tmp_path / "selected_features.txt").read_text().split()
    assert len(selected) == 2


def test_features_k_larger_than_feature_count(tmp_path):
    prepare_small(tmp_path)
    r = cli("features", "--input", "prepared.csv", "--relief-k", "9",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


# ---------------------------------------------------------------------- run

def run_small(tmp_path, *extra):
    prepare_small(tmp_path)
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
    (["run", "--csvm-cost", "nan"], "csvm_cost must be positive"),
    (["run", "--csvm-cost", "0"], "csvm_cost must be positive"),
    (["run", "--csvm-cost", "-1", "--classifiers", "gnb"], "csvm_cost must be positive"),
    (["run", "--relief-k", "9"], "relief_k must lie in [1, 4]"),
    (["features", "--relief-k", "9"], "relief_k must lie in [1, 4]"),
    (["run", "--classifiers", "svdd,forest"], "unknown classifier 'forest'"),
    (["run", "--test-wells", "A,Z"], "unknown well 'Z'"),
    (["run", "--classifiers", "gnb,gnb"], "a name repeats"),
    (["run", "--classifiers", " , "], "the classifier list is empty"),
    (["run", "--test-wells", ","], "the test well list is empty"),
    (["run", "--width", "1e-200"], "kernel width must be positive with a nonzero square"),
    (["run", "--width", "1e-155"], "kernel width must be positive with a nonzero square that is not subnormal"),
], ids=["csvm-nan", "csvm-zero", "csvm-negative-unused", "run-k", "features-k",
        "classifier", "well", "repeat", "classifier-empty", "well-empty", "width-underflow",
        "width-subnormal-square"])
def test_bad_setting_fails_before_relief(tmp_path, monkeypatch, capsys, argv, message):
    prepared = prepare_in_process(tmp_path)
    capsys.readouterr()
    calls = count_calls(monkeypatch)
    code = welldesc.cli.main([*argv, "--input", str(prepared), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not calls and out == ""


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\nwell,depth,f1,sw\nA,1,0.5,0.5\n", "empty file"),
    ("well,depth,sw\nA,1,0.5\n", "need at least one feature column and a target column"),
    ("depth,f1,sw\n1,0.5,0.5\n", "missing column 'well'"),
], ids=["empty", "blank-first-line", "no-feature-column", "no-well-column"])
def test_run_header_error_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "h.csv"
    path.write_text(text, encoding="utf-8")
    code = welldesc.cli.main(["run", "--input", str(path), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# case -> (run flags, the warning raised on the way)
_NON_FINITE_RUNS = {
    "offset-inf": (["--kernel", "polynomial", "--offset", "inf"], None),
    "offset-1e300": (["--kernel", "polynomial", "--offset", "1e300"], "overflow encountered in power"),
}


@pytest.mark.parametrize("case", list(_NON_FINITE_RUNS))
@pytest.mark.parametrize("classifier", ["svdd", "svm"])
def test_run_non_finite_kernel_exits_two(tmp_path, capsys, classifier, case):
    """A kernel that is inf or NaN on the training rows is an input error, not NaN models."""
    flags, warning = _NON_FINITE_RUNS[case]
    argv = ["run", "--input", str(prepare_in_process(tmp_path)), "--out", str(tmp_path), "--cost", "0.25",
            "--relief-k", "2", "--classifiers", classifier, *flags]
    capsys.readouterr()
    with pytest.warns(RuntimeWarning, match=warning) if warning else contextlib.nullcontext():
        code = welldesc.cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: kernel values on the training rows are not finite")
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
    prepare_small(tmp_path)
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


def test_run_all_features_constant(tmp_path):
    csv = tmp_path / "flat.csv"
    rows = [f"{w},{i},1.0,2.0,0.{i + 3}" for w in "AB" for i in range(1, 7)]
    csv.write_text("well,depth,f1,f2,sw\n" + "\n".join(rows) + "\n", encoding="utf-8")
    r = cli("run", "--input", "flat.csv", "--cost", "0.25",
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


# ------------------------------------------------------------------- config

def test_config_file_supplies_settings(tmp_path):
    prepare_small(tmp_path)
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
    prepare_small(tmp_path)
    (tmp_path / "run.cfg").write_text(
        "input=prepared.csv\ncost=0.25\nrelief_k=2\nclassifiers=gnb\n",
        encoding="utf-8")
    r = cli("run", "--config", "run.cfg", "--classifiers", "lda",
            "--out", ".", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert all(ln.startswith("lda,") for ln in lines[1:])


def test_config_unknown_key_rejected(tmp_path):
    prepare_small(tmp_path)
    (tmp_path / "run.cfg").write_text("inptu=prepared.csv\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2


def test_config_values_cast_by_annotation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nwidth=1.5\nmax_passes=none\nrelief_k=3\n"
                   "input=t.csv\nspacing=AUTO\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {
        "seed": 7, "width": 1.5, "max_passes": None, "relief_k": 3,
        "input": "t.csv", "spacing": "AUTO"}
    cfg.write_text("max_passes=12\n", encoding="utf-8")
    assert welldesc.cli.read_config_file(cfg) == {"max_passes": 12}


def test_config_bad_value_rejected(tmp_path):
    prepare_small(tmp_path)
    (tmp_path / "run.cfg").write_text("cost=lots\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2
