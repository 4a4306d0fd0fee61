"""Record the output every pass of a workload must reproduce, per seed.

    python3 perfbench/record.py

Runs each workload once for table seeds 0 .. run.RECORDED_SEEDS - 1 and writes the sha256 of its
timing-free output (report.csv without the two timing columns; for apply,
the confusion counts and g-mean per classifier) to expected.json. Re-record
only in a change that means to alter the program's output, and say so.
"""

import json
import shutil
import sys
import time

sys.dont_write_bytecode = True
import run  # noqa: E402  (sibling module, found through this script's directory)


def main():
    expected = {}
    for name in run.WORKLOADS:
        expected[name] = {}
        for seed in range(run.RECORDED_SEEDS):
            work = run.OUT / "record"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                deadline = time.monotonic() + run.DEADLINE_S
                common = ["--workload", name, "--seed", str(seed)]
                setup = run.launch("setup", common + ["--check"], work, deadline)
                res = run.launch("measure", common + ["--seconds", "0"], work, deadline)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if res["digest"] is None:
                raise SystemExit(f"perfbench: {name} seed {seed} wrote no output to record")
            expected[name][str(seed)] = res["digest"]
            print(name, seed, res["digest"], "failed:", setup["failed"] + res["failed"], flush=True)
    out = run.WORKER.with_name("expected.json")
    out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
