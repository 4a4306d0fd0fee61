"""Command-line pipeline: synth | prepare | features | run.

Settings resolve in three layers: built-in defaults, then a flat key=value
config file (# starts a comment), then command-line flags.

Exit codes: 0 ok, 2 bad configuration or input schema, an input or config
file that is not UTF-8, a file the system cannot open or make (an OSError:
missing, a directory, an --out that names a file), or any other
WelldescError without a code of its own, 3 cleaning removed every row, 4 no
minority rows left to train on, 5 a trainer failed to converge (the report
is still written with NA cells). No toolkit error leaves as a traceback.
"""

import argparse
import csv
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .baselines import predict_csvm, predict_gnb, predict_lda, train_csvm, train_gnb, train_lda
from .dataio import (
    HIGH,
    LOW,
    SynthConfig,
    binarize_target,
    drop_invalid,
    gen_synthetic,
    histogram,
    load_table,
    normalize_fit,
    resample_uniform,
    split_leave_one_well_out,
    write_table,
)
from .errors import (
    EmptyResult,
    InvalidConfig,
    InvalidK,
    MalformedFile,
    NoMinorityTrainingData,
    NonConvergence,
    UndefinedClassAccuracy,
    UnknownWell,
    WelldescError,
)
from .evaluation import RunRecord, compare_report, confusion, g_mean, sensitivity, specificity, timed
from .kernels import KernelSpec
from .persist import save_model
from .relief import relief_weights, select_top
from .svdd import SvddTrainConfig
from .svdd import predict as svdd_predict
from .svdd import train as svdd_train


@dataclass
class Settings:
    input: str | None = None
    out: str = "."
    seed: int = 1
    threshold: float = 0.7
    kernel: str = "gaussian"
    width: float = 2.0
    degree: int = 3
    offset: float = 1.0
    cost: float = 0.05
    csvm_cost: float = 1.0
    relief_k: int = 4
    classifiers: str = "svdd,svm,gnb,lda"
    test_wells: str = "ALL"
    spacing: str = "AUTO"
    bins: int = 20
    max_passes: int | None = None
    wells: int = 4
    rows: int = 500
    skew: float = 0.97
    features: int = 6


_CASTS = {f.name: f.type for f in fields(Settings)}


def _cast(key: str, raw: str):
    kind = _CASTS[key]
    try:
        if kind in (int, float):
            return kind(raw)
        if kind == int | None:
            return None if raw.lower() in ("", "none") else int(raw)
        return raw
    except ValueError as exc:
        raise InvalidConfig(f"bad value {raw!r} for {key}") from exc


def read_config_file(path) -> dict:
    """Flat key=value settings; blank lines and # comments are skipped."""
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split(" #")[0].strip()
        if key not in _CASTS:
            raise InvalidConfig(f"{path}:{line_no}: unknown setting {key!r}")
        entries[key] = _cast(key, value)
    return entries


def _resolve_settings(args: argparse.Namespace) -> Settings:
    s = Settings()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(s, key, value)
    for f in fields(Settings):
        flag = getattr(args, f.name, None)
        if flag is not None:
            setattr(s, f.name, flag)
    if not 0.0 < s.threshold < 1.0:
        raise InvalidConfig(f"threshold must lie in (0, 1), got {s.threshold}")
    if not 0.0 < s.cost <= 1.0:
        raise InvalidConfig(f"cost must lie in (0, 1], got {s.cost}")
    if not s.csvm_cost > 0:
        raise InvalidConfig(f"csvm_cost must be positive, got {s.csvm_cost}")
    if s.relief_k < 1:
        raise InvalidConfig(f"relief_k must be at least 1, got {s.relief_k}")
    if s.max_passes is not None and s.max_passes < 1:
        raise InvalidConfig(f"max_passes must be at least 1, got {s.max_passes}")
    return s


def _kernel_of(s: Settings) -> KernelSpec:
    return KernelSpec(family=s.kernel, width=s.width, degree=s.degree, offset=s.offset)


def _out_dir(s: Settings) -> Path:
    out = Path(s.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spacing_of(s: Settings):
    if s.spacing.upper() == "AUTO":
        return None
    try:
        return float(s.spacing)
    except ValueError as exc:
        raise InvalidConfig(f"bad value {s.spacing!r} for spacing") from exc


def _load_input(s: Settings):
    if not s.input:
        raise InvalidConfig("no input file; pass --input or set input= in the config")
    return load_table(s.input)


def _load_labeled(s: Settings):
    return binarize_target(drop_invalid(_load_input(s)), s.threshold)


def cmd_synth(s: Settings) -> int:
    table = gen_synthetic(SynthConfig(n_wells=s.wells, rows_per_well=s.rows,
                                      skew=s.skew, n_features=s.features, seed=s.seed))
    path = _out_dir(s) / "synthetic.csv"
    write_table(table, path)
    print(f"wrote {path} ({table.n_rows} rows, {len(table.wells)} wells)")
    return 0


def cmd_prepare(s: Settings) -> int:
    out = _out_dir(s)
    table = _load_input(s)
    n_read = table.n_rows
    table = drop_invalid(table)
    n_valid = table.n_rows
    table = resample_uniform(table, _spacing_of(s))
    write_table(table, out / "prepared.csv")

    edges, counts = histogram(table.target, s.bins)
    with open(out / "histogram.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        for b in range(counts.size):
            writer.writerow([f"{edges[b]:.6g}", f"{edges[b + 1]:.6g}", int(counts[b])])

    labeled = binarize_target(table, s.threshold)
    n = labeled.y.size
    n_high = int(np.count_nonzero(labeled.y == HIGH))
    print(f"rows: {n_read} read, {n_valid} valid, {n} after resampling")
    print(f"Class high: {100.0 * n_high / n:.1f}% ({n_high} rows)")
    print(f"Class low: {100.0 * (n - n_high) / n:.1f}% ({n - n_high} rows)")
    print(f"wrote {out / 'prepared.csv'} and {out / 'histogram.csv'}")
    return 0


def select_features(labeled, k: int):
    """Keep the k features of largest Relief weight in `labeled`, in rank order.

    k is checked before Relief runs. Returns the weights of every feature.
    """
    d = len(labeled.feature_names)
    if not 1 <= k <= d:
        raise InvalidK(f"relief_k must lie in [1, {d}] for {d} features, got {k}")
    fw = relief_weights(labeled.X, labeled.y, labeled.feature_names)
    top = select_top(fw, k)
    labeled.X = labeled.X[:, top]
    labeled.feature_names = [fw.feature_names[i] for i in top]
    return fw


def cmd_features(s: Settings) -> int:
    out = _out_dir(s)
    labeled = _load_labeled(s)
    fw = select_features(labeled, s.relief_k)
    order = np.argsort(-fw.weights, kind="stable")
    with open(out / "relief_weights.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "weight"])
        for i in order:
            writer.writerow([fw.feature_names[i], f"{fw.weights[i]:.6g}"])
    names = labeled.feature_names
    (out / "selected_features.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    print(f"selected: {', '.join(names)}")
    print(f"wrote {out / 'relief_weights.csv'} and {out / 'selected_features.txt'}")
    return 0


def run_blind_tests(labeled, kernel: KernelSpec, cost: float, classifiers=None,
                    test_wells=None, csvm_cost: float = 1.0,
                    max_passes: int | None = None, out_dir: Path | None = None,
                    relief_k: int | None = None):
    """Leave-one-well-out protocol shared by the CLI and the benchmark tests.

    Returns (records, any_nonconvergence). Every name is checked before any
    work; with relief_k set, the top relief_k Relief features are then kept
    in `labeled` (select_features) and printed. None for classifiers or
    test_wells means all of them. The hypersphere trains on the minority rows
    of the other wells; the two-class baselines train on all of their rows.
    Feature normalization is fitted per split on the training wells and
    shared by every classifier.

    Every classifier is scored on the split's test rows: the held-out well
    plus the majority rows of the other wells. So each baseline's
    specificity includes rows it was fitted on (74% of the test rows on the
    README walkthrough); the hypersphere's does not. Sensitivity comes from
    the held-out well's minority rows alone.
    """
    # name -> (trains on the minority rows only, train(X, y, stats), predict).
    # Built per call, so each entry is the module global the caller sees now.
    table = {
        "svdd": (True, lambda X, y, stats: svdd_train(
            X, SvddTrainConfig(kernel=kernel, C=cost, max_passes=max_passes), stats),
            svdd_predict),
        "svm": (False, lambda X, y, stats: train_csvm(
            X, y, kernel, csvm_cost, max_passes=max_passes, norm_stats=stats), predict_csvm),
        "gnb": (False, train_gnb, predict_gnb),
        "lda": (False, train_lda, predict_lda),
    }
    classifiers = list(table) if classifiers is None else classifiers
    test_wells = list(labeled.wells) if test_wells is None else test_wells
    if len(labeled.wells) < 2:
        raise InvalidConfig("need at least two wells for leave-one-well-out runs")
    for kind, names in (("classifier", classifiers), ("test well", test_wells)):
        if not names:
            raise InvalidConfig(f"the {kind} list is empty")
        if len(set(names)) < len(names):
            raise InvalidConfig(f"a name repeats in {', '.join(names)}")
    for well in test_wells:
        if well not in labeled.wells:
            raise UnknownWell(f"unknown well {well!r}; have {labeled.wells}")
    for name in classifiers:
        if name not in table:
            raise InvalidConfig(f"unknown classifier {name!r}; known: {', '.join(table)}")
    if relief_k is not None:
        select_features(labeled, relief_k)
        print(f"features: {', '.join(labeled.feature_names)}")

    records, failed = [], False
    for well in test_wells:
        plan = split_leave_one_well_out(labeled, well)
        train_all = np.flatnonzero(labeled.well_ids != well)
        stats = normalize_fit(labeled.X, train_all)
        X_test = labeled.X[plan.test_rows]
        y_test = labeled.y[plan.test_rows]
        for name in classifiers:
            minority_only, fit, predict = table[name]
            rows = plan.train_rows if minority_only else train_all
            try:
                model, t_train = timed(lambda: fit(labeled.X[rows], labeled.y[rows], stats))
                y_pred, t_test = timed(lambda: predict(model, X_test))
            except NonConvergence:
                failed = True
                records.append(RunRecord(name, well, None, None, None, None, None))
                continue
            counts = confusion(y_test, y_pred)
            try:
                records.append(RunRecord(name, well, sensitivity(counts),
                                         specificity(counts), g_mean(counts),
                                         t_train, t_test))
            except UndefinedClassAccuracy:
                records.append(RunRecord(name, well, None, None, None, t_train, t_test))
            if out_dir is not None:
                save_model(model, out_dir / f"model_{name}_{well}.txt")
    return records, failed


def cmd_run(s: Settings) -> int:
    out = _out_dir(s)
    labeled = _load_labeled(s)
    classifiers = [c.strip() for c in s.classifiers.split(",") if c.strip()]
    test_wells = (None if s.test_wells.upper() == "ALL"
                  else [w.strip() for w in s.test_wells.split(",") if w.strip()])
    records, failed = run_blind_tests(labeled, _kernel_of(s), s.cost, classifiers,
                                      test_wells, s.csvm_cost, s.max_passes, out, s.relief_k)
    report = compare_report(records)
    (out / "report.csv").write_text(report, encoding="utf-8")
    print(report, end="")
    if failed:
        print("warning: at least one trainer did not converge; NA cells written", file=sys.stderr)
        return 5
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value settings file")
    common.add_argument("--out", metavar="DIR", help="output directory (default .)")
    common.add_argument("--seed", type=int, metavar="U64", help="random seed")

    parser = argparse.ArgumentParser(
        prog="welldesc",
        description="One-class hypersphere classification of imbalanced well-log data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic multi-well table")
    p.add_argument("--wells", type=int, help="number of wells")
    p.add_argument("--rows", type=int, help="rows per well")
    p.add_argument("--skew", type=float, help="majority fraction in (0, 1)")
    p.add_argument("--features", type=int, help="feature count (last two are noise)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", parents=[common],
                       help="clean, resample, and summarize a well table")
    p.add_argument("--input", metavar="CSV", help="raw input table")
    p.add_argument("--spacing", help="depth step, or AUTO for the per-well median")
    p.add_argument("--threshold", type=float, help="HIGH label threshold on the target")
    p.add_argument("--bins", type=int, help="histogram bin count")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("features", parents=[common], help="rank features by relief weight")
    p.add_argument("--input", metavar="CSV", help="prepared table")
    p.add_argument("--threshold", type=float)
    p.add_argument("--relief-k", type=int, help="how many features to keep")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("run", parents=[common], help="leave-one-well-out benchmark")
    p.add_argument("--input", metavar="CSV", help="prepared table")
    p.add_argument("--threshold", type=float)
    p.add_argument("--kernel", choices=("gaussian", "polynomial", "erbf"))
    p.add_argument("--width", type=float)
    p.add_argument("--degree", type=int)
    p.add_argument("--offset", type=float)
    p.add_argument("--cost", type=float, help="hypersphere cost C in (0, 1]")
    p.add_argument("--csvm-cost", type=float, help="baseline SVM box constraint")
    p.add_argument("--relief-k", type=int)
    p.add_argument("--classifiers", help="comma list from: svdd,svm,gnb,lda")
    p.add_argument("--test-wells", help="comma list of wells, or ALL")
    p.add_argument("--max-passes", type=int, help="solver iteration cap override")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        return args.func(settings)
    except EmptyResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoMinorityTrainingData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (WelldescError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
