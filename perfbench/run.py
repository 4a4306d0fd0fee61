"""Benchmark of the welldesc pipeline: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; it needs no install. Each workload runs
in a fresh child process (worker.py) with the checkout's absolute src
directory on PYTHONPATH, so peak_rss_mb belongs to that workload alone. Two
more children only set up, so that setup_s is a median of three.

With --trace 0 the last line of output is a JSON object holding every
end-to-end metric named in BENCHMARK.json; with --trace 1 it holds every
per-layer metric, from a run whose traced and untraced passes alternate.
Traced runs also write their spans to .perfbench/. Workloads, their shapes
and the metrics each should move are described in workloads.json.

The inputs are the generated tables of seed --seed % RECORDED_SEEDS, the
seeds whose output expected.json records, so every seed's output is checked.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
OUT = ROOT / ".perfbench"
WORKLOADS = ("walkthrough", "scale", "apply")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0   # a run must end within 180 s
RECORDED_SEEDS = 32  # expected.json holds the output of table seeds 0 .. RECORDED_SEEDS - 1


def child_env():
    env = dict(os.environ)
    # absolute, so it still resolves in a child that changes directory
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def launch(stage, argv, work, deadline):
    """Run one worker.py stage on the inputs in `work`; returns its result."""
    result = work / f"{stage}.json"
    cmd = [sys.executable, str(WORKER), stage, *argv, "--work", str(work), "--result", str(result)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker {stage} ran past the deadline and was stopped")
    if code != 0:
        raise SystemExit(f"perfbench: worker {stage} exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(name, seed, seconds, trace):
    """(attempted, failed, metrics) of one run of one workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    try:
        # each set-up is a fresh process; the last one also checks what it ran,
        # and the measuring process reads its inputs
        for k in range(1 if trace else SETUP_SAMPLES):
            inputs = work / f"setup{k}"
            inputs.mkdir(parents=True)
            last = k == (0 if trace else SETUP_SAMPLES - 1)
            setups.append(launch("setup", common + ["--check"] * last, inputs, deadline))
        res = launch("measure", common + ["--seconds", str(seconds), "--trace", str(trace)],
                     inputs, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = res["attempted"] + setups[-1]["attempted"]
    failed = res["failed"] + setups[-1]["failed"]
    if trace:
        values = dict(res["per_layer"])
        values["trace.overhead_s"] = (statistics.median(res["traced_s"])
                                      - statistics.median(res["pass_s"]))
        wanted = spec["per_layer"]
        covered, pass_s = res["self_time_sum"]
        print(f"{name:12s} module self times + cli.self_s = {covered:.6f} s; "
              f"trace.pass_s = {pass_s:.6f} s")
    else:
        g = res["svdd_g_mean"]
        values = {
            "pipeline_s": statistics.median(res["pass_s"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "svdd_g_mean": 0.0 if g is None else g,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "welldesc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no welldesc package under {SRC}; "
                         "run from the root of a full checkout")

    attempted = failed = 0
    metrics = {}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted, failed = attempted + a, failed + f
        for key, metric in m.items():
            print(f"{name:12s} {key:24s} {metric['value']:.6g} {metric['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
