"""Spans and counts recorded from outside the package.

The tracer swaps the public names that welldesc's modules import from each
other (and the names the benchmark itself calls on the `welldesc` package)
for thin wrappers, and swaps the originals back after each traced pass. An
untraced pass therefore runs the package's own code objects unchanged.

A span is [name, start, end, parent, pass_id]. The part of a span's name
before the first dot is the module its time is billed to. The per-row kernel
calls are counted, never spanned: the scale workload makes hundreds of
thousands of them, and a span each would cost more than the call.
"""

import os
import time
from collections import defaultdict

import numpy as np

import welldesc
import welldesc.baselines
import welldesc.cli
import welldesc.persist
import welldesc.svdd

MODULES = ("relief", "svdd", "kernels", "baselines", "dataio", "persist", "evaluation")

# (module object, attribute, span name)
SPANNED = (
    (welldesc.cli, "load_table", "dataio.load"),
    (welldesc.cli, "drop_invalid", "dataio.clean"),
    (welldesc.cli, "resample_uniform", "dataio.clean"),
    (welldesc.cli, "binarize_target", "dataio.clean"),
    (welldesc.cli, "write_table", "dataio.write"),
    (welldesc.cli, "histogram", "dataio.histogram"),
    (welldesc.cli, "normalize_fit", "dataio.normalize"),
    (welldesc.cli, "split_leave_one_well_out", "dataio.split"),
    (welldesc.svdd, "normalize_apply", "dataio.normalize"),
    (welldesc.baselines, "normalize_apply", "dataio.normalize"),
    (welldesc.cli, "relief_weights", "relief.weights"),
    (welldesc.cli, "select_top", "relief.select"),
    (welldesc.cli, "svdd_train", "svdd.train"),
    (welldesc.cli, "svdd_predict", "svdd.score"),
    (welldesc.cli, "train_csvm", "baselines.svm_train"),
    (welldesc.cli, "predict_csvm", "baselines.svm_score"),
    (welldesc.cli, "train_gnb", "baselines.linear"),
    (welldesc.cli, "predict_gnb", "baselines.linear"),
    (welldesc.cli, "train_lda", "baselines.linear"),
    (welldesc.cli, "predict_lda", "baselines.linear"),
    (welldesc.svdd, "gram", "kernels.gram"),
    (welldesc.baselines, "gram", "kernels.gram"),
    (welldesc.persist, "gram", "kernels.gram"),
    (welldesc.cli, "save_model", "persist.save"),
    (welldesc.cli, "compare_report", "evaluation.report"),
    (welldesc.cli, "confusion", "evaluation.score"),
    (welldesc.cli, "sensitivity", "evaluation.score"),
    (welldesc.cli, "specificity", "evaluation.score"),
    (welldesc.cli, "g_mean", "evaluation.score"),
    # names the apply workload calls on the package itself
    (welldesc, "load_table", "dataio.load"),
    (welldesc, "drop_invalid", "dataio.clean"),
    (welldesc, "resample_uniform", "dataio.clean"),
    (welldesc, "binarize_target", "dataio.clean"),
    (welldesc, "load_model", "persist.load"),
    (welldesc, "predict", "svdd.score"),
    (welldesc, "predict_csvm", "baselines.svm_score"),
    (welldesc, "predict_gnb", "baselines.linear"),
    (welldesc, "predict_lda", "baselines.linear"),
    (welldesc, "confusion", "evaluation.score"),
    (welldesc, "g_mean", "evaluation.score"),
)

# (module object, attribute): kernel values one call computes, from its arguments
COUNTED = (
    (welldesc.svdd, "kernel_row", lambda args: len(args[2])),
    (welldesc.svdd, "eval_kernel", lambda args: 1),
    (welldesc.baselines, "kernel_row", lambda args: len(args[2])),
)

# per-layer metric -> span names whose inclusive time it sums
INCLUSIVE = {
    "relief.busy_s": ("relief.weights", "relief.select"),
    "svdd.score_s": ("svdd.score",),
    "svdd.train_s": ("svdd.train",),
    "kernels.gram_s": ("kernels.gram",),
    "baselines.svm_train_s": ("baselines.svm_train",),
    "baselines.svm_score_s": ("baselines.svm_score",),
    "baselines.linear_s": ("baselines.linear",),
    "dataio.load_s": ("dataio.load",),
    "dataio.clean_s": ("dataio.clean",),
    "persist.save_s": ("persist.save",),
    "persist.load_s": ("persist.load",),
    "evaluation.busy_s": ("evaluation.report", "evaluation.score"),
}

COUNTS = ("relief.calls", "relief.rows", "svdd.rows_scored", "svdd.n_sv",
          "svdd.stored_vectors", "kernels.row_calls", "kernels.gram_calls",
          "kernels.entries", "baselines.svm_n_sv", "dataio.rows_in",
          "persist.save_bytes")


def _svdd_counts(model, counts):
    alphas = np.asarray(model.alphas)
    counts["svdd.stored_vectors"] += alphas.size
    counts["svdd.n_sv"] += int(np.count_nonzero(alphas > getattr(model, "kkt_tol", 1e-6)))


def _observe(name, args, result, counts):
    """Counts a span adds, read from its arguments and result."""
    if name == "relief.weights":
        counts["relief.calls"] += 1
        counts["relief.rows"] += len(args[0])
    elif name == "svdd.score":
        counts["svdd.rows_scored"] += len(args[1])
    elif name == "svdd.train":
        _svdd_counts(result, counts)
    elif name == "baselines.svm_train":
        counts["baselines.svm_n_sv"] += len(result.betas)
    elif name == "kernels.gram":
        n = len(args[1])
        counts["kernels.gram_calls"] += 1
        counts["kernels.entries"] += n * (n + 1) // 2  # upper triangle, mirrored
    elif name == "dataio.load":
        counts["dataio.rows_in"] += result.n_rows
    elif name == "persist.save":
        counts["persist.save_bytes"] += os.path.getsize(args[1])
    elif name == "persist.load":
        if isinstance(result, welldesc.SvddModel):
            _svdd_counts(result, counts)
        elif isinstance(result, welldesc.SvmModel):
            counts["baselines.svm_n_sv"] += len(result.betas)


class Tracer:
    """Spans and counts of the traced passes of one run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []        # one defaultdict per traced pass
        self._stack = []
        self._saved = []

    def _spanned(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None, stack[-1], len(self.counts) - 1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            _observe(name, args, result, self.counts[-1])
            return result
        return wrapper

    def _counted(self, fn, entries):
        def wrapper(*args, **kwargs):
            counts = self.counts[-1]
            counts["kernels.row_calls"] += 1
            counts["kernels.entries"] += entries(args)
            return fn(*args, **kwargs)
        return wrapper

    def run_pass(self, task):
        """Run task() as one traced pass; returns its wall seconds."""
        self.counts.append(defaultdict(int))
        root = ["pass", None, None, None, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._spanned(fn, name))
        for module, attr, entries in COUNTED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._counted(fn, entries))
        root[1] = time.perf_counter()
        try:
            task()
        finally:
            root[2] = time.perf_counter()
            while self._saved:
                module, attr, fn = self._saved.pop()
                setattr(module, attr, fn)
            self._stack.pop()
        return root[2] - root[1]

    def pass_metrics(self):
        """Per-layer metrics of each traced pass."""
        per_pass = [defaultdict(float) for _ in self.counts]
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for idx, (name, start, end, _parent, pid) in enumerate(self.spans):
            m = per_pass[pid]
            self_s = end - start - child_time[idx]
            if name == "pass":
                m["trace.pass_s"] += end - start
                m["cli.self_s"] += self_s
                continue
            m[name.split(".")[0] + ".self_s"] += self_s
            if name == "svdd.train":
                m["svdd.train_self_s"] += self_s
            for metric, names in INCLUSIVE.items():
                if name in names:
                    m[metric] += end - start
        out = []
        for m, counts in zip(per_pass, self.counts):
            row = {metric: m[metric] for metric in INCLUSIVE}
            row["svdd.train_self_s"] = m["svdd.train_self_s"]
            row.update({f"{mod}.self_s": m[f"{mod}.self_s"] for mod in MODULES})
            row["cli.self_s"] = m["cli.self_s"]
            row["trace.pass_s"] = m["trace.pass_s"]
            row.update({c: counts[c] for c in COUNTS})
            out.append(row)
        return out

    def broken_passes(self):
        """Ids of the traced passes with a span left open, or one that is not
        within its parent's interval in its own pass."""
        broken = set()
        for _name, start, end, parent, pid in self.spans:
            if end is None:
                broken.add(pid)
            elif parent is not None:
                _, p_start, p_end, _, p_pid = self.spans[parent]
                if p_pid != pid or start < p_start or (p_end is not None and end > p_end):
                    broken.add(pid)
        return broken

    def summary(self):
        """Every per-layer metric of the traced pass of median length.

        Taken from one pass, not as per-metric medians, so that the module
        self times and cli.self_s still add up to trace.pass_s.
        """
        rows = sorted(self.pass_metrics(), key=lambda r: r["trace.pass_s"])
        return rows[(len(rows) - 1) // 2]

    def dump(self):
        return {"fields": ["name", "start", "end", "parent", "pass_id"],
                "spans": self.spans,
                "counts": [dict(c) for c in self.counts]}
