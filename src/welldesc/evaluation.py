"""Confusion counts, g-mean, timing, and the cross-classifier report table.

The minority class LOW is the positive class throughout.
"""

import time
from dataclasses import dataclass

import numpy as np

from .dataio import HIGH, LOW, _csv_cell
from .errors import EmptyInput, LengthMismatch, UndefinedClassAccuracy


@dataclass
class ConfusionCounts:
    tp: int  # truth LOW, predicted LOW
    fn: int  # truth LOW, predicted HIGH
    tn: int  # truth HIGH, predicted HIGH
    fp: int  # truth HIGH, predicted LOW


@dataclass
class RunRecord:
    """One classifier scored on one blind well; None marks a failed cell."""

    classifier: str
    well: str
    sensitivity: float | None
    specificity: float | None
    g_mean: float | None
    train_seconds: float | None
    test_seconds: float | None


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise LengthMismatch(f"{y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise EmptyInput("no labels to count")
    return ConfusionCounts(
        tp=int(np.count_nonzero((y_true == LOW) & (y_pred == LOW))),
        fn=int(np.count_nonzero((y_true == LOW) & (y_pred == HIGH))),
        tn=int(np.count_nonzero((y_true == HIGH) & (y_pred == HIGH))),
        fp=int(np.count_nonzero((y_true == HIGH) & (y_pred == LOW))),
    )


def sensitivity(c: ConfusionCounts) -> float:
    """Accuracy on the positive (LOW) class."""
    if c.tp + c.fn == 0:
        raise UndefinedClassAccuracy("no LOW rows in the truth labels")
    return c.tp / (c.tp + c.fn)


def specificity(c: ConfusionCounts) -> float:
    """Accuracy on the negative (HIGH) class."""
    if c.tn + c.fp == 0:
        raise UndefinedClassAccuracy("no HIGH rows in the truth labels")
    return c.tn / (c.tn + c.fp)


def g_mean(c: ConfusionCounts) -> float:
    """Geometric mean of the two per-class accuracies."""
    return float(np.sqrt(sensitivity(c) * specificity(c)))


def timed(task):
    """Run task() and return (result, wall seconds)."""
    t0 = time.perf_counter()
    result = task()
    return result, time.perf_counter() - t0


_HEADER = "classifier,well,sensitivity,specificity,g_mean,train_seconds,test_seconds"


def _cell(value, fmt):
    return "NA" if value is None else format(value, fmt)


def _avg(cells):
    # average of the printed values, so the table is self-consistent when
    # re-parsed; an all-NA column stays NA
    seen = [float(c) for c in cells if c != "NA"]
    return sum(seen) / len(seen) if seen else None


def compare_report(records) -> str:
    """CSV comparison table, one row per (classifier, well) plus per-classifier
    averages. Metrics print with 4 decimals, times with 3, and a well id is
    quoted as write_table quotes it."""
    records = list(records)
    if not records:
        raise EmptyInput("no run records")
    by_clf: dict = {}
    for r in records:
        by_clf.setdefault(r.classifier, []).append(r)

    lines = [_HEADER]
    for clf, group in by_clf.items():
        printed = []
        for r in group:
            cells = [_cell(r.sensitivity, ".4f"), _cell(r.specificity, ".4f"),
                     _cell(r.g_mean, ".4f"), _cell(r.train_seconds, ".3f"),
                     _cell(r.test_seconds, ".3f")]
            printed.append(cells)
            lines.append(",".join([clf, _csv_cell(r.well), *cells]))
        averages = [_avg([row[k] for row in printed]) for k in range(5)]
        lines.append(",".join([
            clf, "average",
            _cell(averages[0], ".4f"), _cell(averages[1], ".4f"), _cell(averages[2], ".4f"),
            _cell(averages[3], ".3f"), _cell(averages[4], ".3f"),
        ]))
    return "\n".join(lines) + "\n"
