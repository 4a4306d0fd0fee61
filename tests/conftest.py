"""Shared helpers for the test suite.

The leave-one-well-out benchmark used by several tests lives here. It runs
the splits as `welldesc run` does: run_blind_tests on the whole labelled
table, with relief_k set so that it selects the features itself.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from welldesc import KernelSpec, SynthConfig, binarize_target, gen_synthetic
from welldesc.cli import run_blind_tests, select_features

BENCH_KERNEL = KernelSpec(family="gaussian", width=2.0)
BENCH_COST = 0.25

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def absolute_src_on_pythonpath(monkeypatch):
    """Put the absolute src directory first on PYTHONPATH.

    The CLI tests start `python -m welldesc` in temporary directories, where a
    relative entry such as PYTHONPATH=src no longer resolves.
    """
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([SRC, *rest]))


def benchmark_labeled(seed, n_wells=4, rows=500, skew=0.97, n_features=6):
    """Synthetic multi-well dataset with every feature."""
    table = gen_synthetic(SynthConfig(n_wells=n_wells, rows_per_well=rows,
                                      skew=skew, n_features=n_features, seed=seed))
    return binarize_target(table, 0.7)


def benchmark_dataset(seed, n_wells=4, rows=500, skew=0.97, n_features=6, relief_k=4):
    """benchmark_labeled with the top relief features selected."""
    data = benchmark_labeled(seed, n_wells, rows, skew, n_features)
    _, top = select_features(data, relief_k)
    data.X = data.X[:, top]
    data.feature_names = [data.feature_names[i] for i in top]
    return data


def benchmark_records(seed, cost=BENCH_COST):
    """Every classifier on every well of benchmark_labeled(seed), on its top 4
    relief features."""
    records, failed = run_blind_tests(benchmark_labeled(seed), BENCH_KERNEL, cost, relief_k=4)
    assert not failed
    return records


def benchmark_averages(seed, cost=BENCH_COST):
    """Average g-mean per classifier; a well with undefined g counts as 0."""
    records = benchmark_records(seed, cost)
    out = {}
    for rec in records:
        out.setdefault(rec.classifier, []).append(
            0.0 if rec.g_mean is None else rec.g_mean)
    return {name: float(np.mean(vals)) for name, vals in out.items()}
