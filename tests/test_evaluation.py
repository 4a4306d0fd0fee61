import csv
import io
import math
import time

import numpy as np
import pytest

from welldesc import (
    HIGH,
    LOW,
    ConfusionCounts,
    RunRecord,
    compare_report,
    confusion,
    g_mean,
    sensitivity,
    specificity,
    timed,
)
from welldesc.errors import EmptyInput, LengthMismatch, UndefinedClassAccuracy


# ---------------------------------------------------------------- confusion

def test_confusion_perfect_pair():
    c = confusion([LOW, HIGH], [LOW, HIGH])
    assert (c.tp, c.fn, c.tn, c.fp) == (1, 0, 1, 0)


def test_confusion_everything_predicted_high():
    y_true = [LOW] * 3 + [HIGH] * 7
    c = confusion(y_true, [HIGH] * 10)
    assert (c.tp, c.fn, c.tn, c.fp) == (0, 3, 7, 0)


def test_confusion_against_independent_recount():
    rng = np.random.default_rng(61)
    y_true = rng.integers(0, 2, size=20)
    y_pred = rng.integers(0, 2, size=20)
    c = confusion(y_true, y_pred)
    tally = {"tp": 0, "fn": 0, "tn": 0, "fp": 0}
    for t, p in zip(y_true, y_pred):
        if t == LOW:
            tally["tp" if p == LOW else "fn"] += 1
        else:
            tally["tn" if p == HIGH else "fp"] += 1
    assert (c.tp, c.fn, c.tn, c.fp) == (tally["tp"], tally["fn"], tally["tn"], tally["fp"])


def test_confusion_partitions_the_truth():
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(1, 50))
        y_true = rng.integers(0, 2, size=n)
        y_pred = rng.integers(0, 2, size=n)
        c = confusion(y_true, y_pred)
        assert c.tp + c.fn == int(np.count_nonzero(y_true == LOW))
        assert c.tn + c.fp == int(np.count_nonzero(y_true == HIGH))


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([LOW, HIGH], [LOW])


def test_confusion_empty():
    with pytest.raises(EmptyInput):
        confusion([], [])


# ------------------------------------------------------------------ metrics

def test_sensitivity_specificity_definitions():
    c = ConfusionCounts(tp=3, fn=1, tn=8, fp=2)
    assert sensitivity(c) == 0.75
    assert specificity(c) == 0.8


def test_metrics_undefined_without_the_class():
    with pytest.raises(UndefinedClassAccuracy):
        sensitivity(ConfusionCounts(tp=0, fn=0, tn=5, fp=1))
    with pytest.raises(UndefinedClassAccuracy):
        specificity(ConfusionCounts(tp=2, fn=1, tn=0, fp=0))


def test_g_mean_hand_value():
    g = g_mean(ConfusionCounts(tp=3, fn=1, tn=8, fp=2))
    assert abs(g - math.sqrt(0.6)) <= 1e-12
    assert g == pytest.approx(0.774597, abs=1e-6)


def test_g_mean_edge_values():
    assert g_mean(ConfusionCounts(tp=5, fn=0, tn=5, fp=0)) == 1.0
    assert g_mean(ConfusionCounts(tp=3, fn=1, tn=0, fp=4)) == 0.0


def test_g_mean_zero_iff_either_accuracy_zero():
    rng = np.random.default_rng(63)
    for _ in range(30):
        tp, fn, tn, fp = (int(v) for v in rng.integers(0, 6, size=4))
        if tp + fn == 0 or tn + fp == 0:
            continue
        g = g_mean(ConfusionCounts(tp, fn, tn, fp))
        assert 0.0 <= g <= 1.0
        assert (g == 0.0) == (tp == 0 or tn == 0)


def test_g_mean_symmetric_under_class_swap():
    rng = np.random.default_rng(64)
    for _ in range(20):
        tp, fn, tn, fp = (int(v) for v in rng.integers(1, 9, size=4))
        a = g_mean(ConfusionCounts(tp, fn, tn, fp))
        b = g_mean(ConfusionCounts(tn, fp, tp, fn))
        assert a == pytest.approx(b, rel=1e-12)


# ------------------------------------------------------------------- timing

def test_timed_returns_result_and_tiny_time_for_noop():
    value, seconds = timed(lambda: 41 + 1)
    assert value == 42
    assert 0.0 <= seconds < 0.01


def test_timed_calibration_sleep():
    _, seconds = timed(lambda: time.sleep(0.1))
    assert abs(seconds - 0.1) <= 0.05


def test_timed_propagates_errors():
    def boom():
        raise RuntimeError("nope")
    with pytest.raises(RuntimeError):
        timed(boom)


# ------------------------------------------------------------------- report

def _rec(clf, well, g=None, sens=None, spec=None, tr=None, te=None):
    return RunRecord(clf, well, sens, spec, g, tr, te)


def test_report_reproduces_four_well_averages():
    gs = [0.78, 0.65, 0.83, 0.90]
    ts = [30.2, 40.5, 19.3, 26.4]
    records = [_rec("svdd", w, g=g, tr=t)
               for w, g, t in zip("ABCD", gs, ts)]
    lines = compare_report(records).strip().split("\n")
    assert lines[0] == "classifier,well,sensitivity,specificity,g_mean,train_seconds,test_seconds"
    avg = lines[-1].split(",")
    assert avg[:2] == ["svdd", "average"]
    assert round(float(avg[4]), 2) == 0.79
    assert round(float(avg[5]), 1) == 29.1


def test_report_single_record_average_is_itself():
    lines = compare_report([_rec("gnb", "A", g=0.5, sens=0.4, spec=0.625,
                                 tr=1.0, te=2.0)]).strip().split("\n")
    assert lines[1] == "gnb,A,0.4000,0.6250,0.5000,1.000,2.000"
    assert lines[2] == "gnb,average,0.4000,0.6250,0.5000,1.000,2.000"


def test_report_na_cells_for_missing_values():
    lines = compare_report([_rec("svdd", "A"), _rec("svdd", "B", g=0.8)]).strip().split("\n")
    assert lines[1].endswith("NA,NA,NA,NA,NA")
    # the average ignores NA cells instead of poisoning the column
    assert lines[-1].split(",")[4] == "0.8000"


def test_report_averages_recompute_from_printed_rows():
    """Re-parsing the table and averaging its own cells must reproduce the
    average rows exactly, formatting included."""
    rng = np.random.default_rng(65)
    records = []
    for clf in ("svdd", "gnb"):
        for well in "ABCDE":
            records.append(_rec(clf, well,
                                g=float(rng.uniform()), sens=float(rng.uniform()),
                                spec=float(rng.uniform()), tr=float(rng.uniform(0, 60)),
                                te=float(rng.uniform(0, 5))))
    lines = compare_report(records).strip().split("\n")
    per_clf: dict = {}
    averages = {}
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "average":
            averages[cells[0]] = cells[2:]
        else:
            per_clf.setdefault(cells[0], []).append(cells[2:])
    for clf, rows in per_clf.items():
        for k, fmt in enumerate((".4f", ".4f", ".4f", ".3f", ".3f")):
            mean = sum(float(r[k]) for r in rows) / len(rows)
            assert format(mean, fmt) == averages[clf][k]


def test_report_quotes_a_well_id_as_csv_needs():
    """An id holding a comma, a quote or a line break is one quoted cell, as
    write_table writes it; a plain id is written as it stands."""
    wells = ["W,1", 'W"2', "W\n3", "15/9-F-11 B"]
    report = compare_report([_rec("gnb", w, g=0.5, sens=0.4, spec=0.625, tr=1.0, te=2.0)
                             for w in wells])
    rows = list(csv.reader(io.StringIO(report, newline="")))
    assert {len(row) for row in rows} == {7}
    assert [row[1] for row in rows[1:]] == [*wells, "average"]
    assert report.split("\n")[1] == 'gnb,"W,1",0.4000,0.6250,0.5000,1.000,2.000'
    assert "\ngnb,15/9-F-11 B,0.4000," in report


def test_report_groups_preserve_first_seen_order():
    records = [_rec("svm", "A", g=0.1), _rec("svdd", "A", g=0.2),
               _rec("svm", "B", g=0.3)]
    lines = compare_report(records).strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["svm", "svm", "svm", "svdd", "svdd"]


def test_report_empty_rejected():
    with pytest.raises(EmptyInput):
        compare_report([])
