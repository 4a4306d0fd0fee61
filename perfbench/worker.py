"""One workload in one fresh process: set up, run timed passes, check outputs.

run.py starts this file with PYTHONPATH set to the checkout's absolute src
directory and reads the JSON object it writes to --result. The package is
driven only through its public entry points: welldesc.cli.main for the
pipeline workloads, and load_table / load_model / predict* for apply.
"""

import time

T0 = time.perf_counter()  # setup_s starts before numpy and welldesc load

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import welldesc
import welldesc.cli
from run import OUT, RECORDED_SEEDS
from spans import MODULES, Tracer

WIDTH = "2.0"
THRESHOLD = 0.7
WALK = dict(n_wells=4, rows_per_well=500, skew=0.97)
SCALE = dict(n_wells=8, rows_per_well=1000, skew=0.95)
UNSEEN = dict(n_wells=8, rows_per_well=4000, skew=0.95)
UNSEEN_SEED_OFFSET = 1_000_000   # the applied table never shares a seed with a training table
APPLY_WELL = "A"                  # apply scores the models trained with this well held out
CLASSIFIERS = ("svdd", "svm", "gnb", "lda")
PREDICT = {"svdd": "predict", "svm": "predict_csvm", "gnb": "predict_gnb", "lda": "predict_lda"}
EXPECTED = Path(__file__).with_name("expected.json")


def synth(shape, seed, path):
    table = welldesc.gen_synthetic(welldesc.SynthConfig(seed=seed, **shape))
    welldesc.write_table(table, path)


def cli(argv):
    """welldesc.cli.main with its console output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return welldesc.cli.main([str(a) for a in argv])


def walkthrough_steps(raw, out):
    prepared = out / "prepared.csv"
    return [["prepare", "--input", raw, "--out", out],
            ["features", "--input", prepared, "--out", out],
            ["run", "--input", prepared, "--cost", "0.25", "--width", WIDTH, "--out", out]]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Cells attempted and failed over the passes of one process."""

    def __init__(self, expected):
        self.attempted = 0
        self.failed = 0
        self.first = None         # sha256 of the first pass's output; record.py stores it
        self.expected = expected  # the recorded sha256 for this workload and seed, or None

    def count(self, n_cells, text, bad=0, why=()):
        """Count one pass of n_cells cells, `bad` of which failed a check (reasons in `why`).

        Every pass's timing-free output `text` must be the recorded one. If it
        is not, or no output or record exists, all n_cells fail, so a changed
        output weighs the same however many passes fit in the run.
        """
        got = None if text is None else digest(text)
        if self.first is None:
            self.first = got
        if got is None:
            wrong = "no output"
        elif self.expected is None:
            wrong = "no output recorded for this workload and seed"
        elif got != self.expected:
            wrong = "output differs from the bytes recorded for this seed"
        else:
            wrong = None
        why = [*why, wrong] if wrong else list(why)
        bad = n_cells if wrong else min(bad, n_cells)
        self.attempted += n_cells
        self.failed += bad
        if bad:
            print(f"perfbench: {bad} of {n_cells} cells failed: {'; '.join(why)}", file=sys.stderr)

    def report(self, codes, path, n_cells):
        """Check one pipeline pass: exit codes, NA cells, timing-free report bytes.

        Returns the hypersphere's average g-mean, or None.
        """
        if codes is None:
            self.count(n_cells, None, why=["pass raised"])
            return None
        why = [f"exit code {code}" for code in codes if code != 0]
        bad = len(why)
        text = g = None
        if path.exists():
            report = path.read_text(encoding="utf-8")
            path.unlink()  # a later pass that writes none must not read this one
            rows = [line.split(",") for line in report.splitlines()]
            cells = [r for r in rows[1:] if r[1] != "average"]
            na = sum(1 for r in cells if "NA" in r[2:5])
            if na or len(cells) != n_cells:
                bad += na + abs(n_cells - len(cells))
                why.append(f"{na} NA cells, {len(cells)} of {n_cells} cells reported")
            text = "".join(",".join(r[:-2]) + "\n" for r in rows)
            g = [float(r[4]) for r in rows if r[:2] == ["svdd", "average"] and r[4] != "NA"]
        self.count(n_cells, text, bad, why)
        return g[0] if g else None


class Pipeline:
    """walkthrough and scale: welldesc.cli.main over a generated table."""

    def __init__(self, name, seed, work, tally):
        self.name, self.seed, self.tally = name, seed, tally
        self.raw = work / "synthetic.csv"
        self.out = work / "out"
        if name == "walkthrough":
            self.steps = walkthrough_steps(self.raw, self.out)
            self.n_cells = len(CLASSIFIERS) * WALK["n_wells"]
        else:
            self.steps = [["run", "--input", self.raw, "--classifiers", "svdd,gnb,lda",
                           "--cost", "0.05", "--width", WIDTH, "--out", self.out]]
            self.n_cells = 3 * SCALE["n_wells"]

    def setup(self):
        synth(WALK if self.name == "walkthrough" else SCALE, self.seed, self.raw)

    def task(self):
        return [cli(argv) for argv in self.steps]

    def check(self, codes):
        return self.tally.report(codes, self.out / "report.csv", self.n_cells)


class Apply:
    """apply: score an unseen table with the model files a walkthrough run wrote."""

    def __init__(self, seed, work, tally):
        self.seed, self.tally = seed, tally
        self.raw = work / "synthetic.csv"
        self.models = work / "models"
        self.unseen = work / "unseen.csv"
        self.reference_file = work / "reference.npz"
        self.captured = {}

    def setup(self):
        synth(WALK, self.seed, self.raw)
        save = welldesc.cli.save_model

        def capture(model, path):
            self.captured[Path(path).name] = model
            save(model, path)

        welldesc.cli.save_model = capture
        try:
            self.codes = [cli(argv) for argv in walkthrough_steps(self.raw, self.models)]
        finally:
            welldesc.cli.save_model = save
        synth(UNSEEN, self.seed + UNSEEN_SEED_OFFSET, self.unseen)

    def check_setup(self):
        """Check the training run against the walkthrough's recorded report, and save
        what its in-memory models predict on the unseen table."""
        self.tally.report(self.codes, self.models / "report.csv",
                          len(CLASSIFIERS) * WALK["n_wells"])
        X, _ = self._table()
        np.savez(self.reference_file, **{clf: getattr(welldesc, PREDICT[clf])(
            self.captured[f"model_{clf}_{APPLY_WELL}.txt"], X) for clf in CLASSIFIERS})

    def _table(self):
        with open(self.unseen, encoding="utf-8") as fh:
            schema = [h for h in fh.readline().strip().split(",") if h not in ("well", "depth")]
        table = welldesc.load_table(self.unseen, schema)
        table = welldesc.drop_invalid(table)
        table = welldesc.resample_uniform(table)
        data = welldesc.binarize_target(table, THRESHOLD)
        selected = (self.models / "selected_features.txt").read_text(encoding="utf-8").split()
        return data.X[:, [data.feature_names.index(f) for f in selected]], data.y

    def task(self):
        X, y = self._table()
        out = {}
        for clf in CLASSIFIERS:
            model = welldesc.load_model(self.models / f"model_{clf}_{APPLY_WELL}.txt")
            pred = getattr(welldesc, PREDICT[clf])(model, X)
            counts = welldesc.confusion(y, pred)
            out[clf] = (pred, counts, welldesc.g_mean(counts))
        return out

    def check(self, out):
        if out is None:
            self.tally.count(len(CLASSIFIERS), None, why=["pass raised"])
            return None
        why, lines = [], []
        with np.load(self.reference_file) as reference:
            for clf in CLASSIFIERS:
                pred, c, g = out[clf]
                if not np.array_equal(pred, reference[clf]):
                    why.append(f"{clf}: loaded model predicts unlike the in-memory one")
                lines.append(f"{clf},{c.tp},{c.fn},{c.tn},{c.fp},{g!r}\n")
        self.tally.count(len(CLASSIFIERS), "".join(lines), len(why), why)
        return out["svdd"][2]


def one_pass(workload, tracer):
    """Run one pass; returns (wall seconds, svdd g-mean)."""
    result = None

    def task():
        nonlocal result
        try:
            result = workload.task()
        except Exception:  # counted as failed cells; the run goes on
            traceback.print_exc()

    if tracer is None:
        start = time.perf_counter()
        task()
        seconds = time.perf_counter() - start
    else:
        seconds = tracer.run_pass(task)
    return seconds, workload.check(result)


def measure(workload, seconds, tracer):
    """Timed passes until the next would end past `seconds`; at least one of each kind.

    With a tracer, traced and untraced passes alternate after one uncounted
    warm-up pass, which would otherwise bias trace.overhead_s: a process's
    first pass runs up to 10% slower than the rest.
    Returns (untraced seconds, traced seconds, first counted pass's svdd g-mean,
    MB). The last is the process's peak resident set when that pass ends: what
    one command costs, and independent of how many passes fit in `seconds`
    (the peak creeps up by a few percent over many passes).
    """
    plain, traced = [], []
    g = peak_mb = None
    start = time.perf_counter()
    if tracer is not None:
        one_pass(workload, None)
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        took, g_pass = one_pass(workload, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(took)
        if peak_mb is None:
            g, peak_mb = g_pass, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        next_end = time.perf_counter() - start + statistics.median(plain + traced)
        if next_end > seconds and (tracer is None or traced):
            return plain, traced, g, peak_mb


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("stage", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=("walkthrough", "scale", "apply"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True, help="directory holding the inputs")
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--check", action="store_true", help="setup: also check what setup ran")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    table_seed = args.seed % RECORDED_SEEDS
    # apply's set-up check is of its walkthrough-shaped training run
    checked = "walkthrough" if args.stage == "setup" else args.workload
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    tally = Tally(recorded.get(checked, {}).get(str(table_seed)))
    if args.workload == "apply":
        workload = Apply(table_seed, args.work, tally)
    else:
        workload = Pipeline(args.workload, table_seed, args.work, tally)

    if args.stage == "setup":
        workload.setup()
        result = {"setup_s": time.perf_counter() - T0}
        if args.check and isinstance(workload, Apply):
            workload.check_setup()
        result.update(attempted=tally.attempted, failed=tally.failed)
        args.result.write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    plain, traced, g, peak_mb = measure(workload, args.seconds, tracer)
    result = {"pass_s": plain, "digest": tally.first, "svdd_g_mean": g, "peak_rss_mb": peak_mb}
    if tracer is not None:
        # one check per traced pass: its spans are all closed and nested in their parents
        broken = tracer.broken_passes()
        tally.attempted += len(traced)
        tally.failed += len(broken)
        if broken:
            print(f"perfbench: spans of traced passes {sorted(broken)} are broken", file=sys.stderr)
        summary = tracer.summary()
        # the module self times and cli.self_s add up to the pass by construction; reported
        covered = sum(summary[f"{m}.self_s"] for m in MODULES) + summary["cli.self_s"]
        result.update(per_layer=summary, traced_s=traced,
                      self_time_sum=[covered, summary["trace.pass_s"]])
        trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "table_seed": table_seed, **tracer.dump()}))
    result.update(attempted=tally.attempted, failed=tally.failed)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
