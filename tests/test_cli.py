import subprocess
import sys

import pytest

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


def test_prepare_missing_input_file(tmp_path):
    r = cli("prepare", "--input", "nope.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2


@pytest.mark.parametrize("bad_row, message", [
    ("A,3,oops,2.2,0.6", "line 4, column 'f1': cannot parse 'oops'"),
    ("A,3,0.4", "line 4 has 3 cells, expected 5"),
    ("A,2,0.4,2.2,0.6", "well 'A' repeats depth 2.0"),   # names the well, not a line
    ("A,3,0.4,2.2,1.5", "line 4: target 1.5 outside [0, 1]"),
], ids=["non-numeric-cell", "short-row", "repeated-depth", "target-out-of-range"])
def test_prepare_ingest_error_exits_two(tmp_path, bad_row, message):
    csv = tmp_path / "bad.csv"
    csv.write_text("well,depth,f1,f2,sw\nA,1,0.5,2.0,0.5\nA,2,0.6,2.1,0.9\n"
                   + bad_row + "\nA,4,0.7,2.3,0.8\n", encoding="utf-8")
    r = cli("prepare", "--input", "bad.csv", "--out", ".", cwd=tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and message in r.stderr
    assert "Traceback" not in r.stderr


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
    r = run_small(tmp_path, "--test-wells", "Z")
    assert r.returncode == 2


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


def test_config_bad_value_rejected(tmp_path):
    prepare_small(tmp_path)
    (tmp_path / "run.cfg").write_text("cost=lots\n", encoding="utf-8")
    r = cli("run", "--config", "run.cfg", cwd=tmp_path)
    assert r.returncode == 2
