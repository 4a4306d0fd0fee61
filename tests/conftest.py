"""Shared helpers for the test suite.

The leave-one-well-out benchmark used by several tests lives here. It
selects features and runs the splits through the functions `welldesc run`
calls, select_features and run_blind_tests.
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


def benchmark_dataset(seed, n_wells=4, rows=500, skew=0.97, n_features=6, relief_k=4):
    """Synthetic multi-well dataset with the top relief features selected."""
    table = gen_synthetic(SynthConfig(n_wells=n_wells, rows_per_well=rows,
                                      skew=skew, n_features=n_features, seed=seed))
    data = binarize_target(table, 0.7)
    select_features(data, relief_k)
    return data


def benchmark_records(seed, cost=BENCH_COST):
    """Every classifier on every well of benchmark_dataset(seed)."""
    records, failed = run_blind_tests(benchmark_dataset(seed), BENCH_KERNEL, cost)
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
