"""Ingest, clean, resample, label, split, and synthesize well-log tables.

A table is columnar: per-row well id, depth, a feature block, and one
real-valued target in [0, 1]. NaN marks a missing cell. Within each well the
rows are sorted by strictly increasing depth.

load_table reads a UTF-8 CSV, with or without a byte-order mark, in fixed
chunks of rows and turns each chunk into float arrays a column at a time;
only a column that holds a blank, a U+2212 minus sign or bad text is parsed
cell by cell. A faulty file is reported at its first faulty record in file
order, with the same error a row-by-row read would raise, and at the file
line where that record starts.

write_table writes the file that load_table reads: a header row, then per
row the well id with the csv module's minimal quoting and every value in
`.6g` form, an empty cell for NaN, each line ended by CRLF. It formats a
chunk of rows at a time, one % template per row.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    EmptyResult,
    EmptyRowSet,
    InvalidConfig,
    MalformedFile,
    NoMinorityTrainingData,
    NonFiniteInput,
    NonNumericCell,
    SingleRowWell,
    UnknownWell,
)

SENTINEL = -999.25

LOW = 0
HIGH = 1

AUTO = None  # resample spacing: take the median observed step per well
# resample_uniform refuses a grid of more rows than this in one well, before
# it allocates the grid: a tiny step would otherwise ask for billions of rows
MAX_GRID_ROWS = 10_000_000

# csv rows that load_table parses, and write_table formats, at a time. The
# chunk's cell strings and float columns are the per-row temporaries of both,
# so this bounds them.
# 256 to 2048 rows load a 32,000-row file equally fast; 256 gave perfbench's
# lowest peak resident set on all three workloads (walkthrough 73.4 MB
# against 74.3 MB at 1024 rows), and 4096 rows raise the loader's traced peak
# from 5.1 to 7.1 MB.
_CHUNK_ROWS = 256


@dataclass
class WellTable:
    """Columnar well-log table; NaN marks a missing cell."""

    wells: list            # unique well ids, first-appearance order
    well_ids: np.ndarray   # (n,) per-row well id
    depth: np.ndarray      # (n,)
    features: np.ndarray   # (n, d)
    target: np.ndarray     # (n,)
    feature_names: list
    target_name: str

    @property
    def n_rows(self) -> int:
        return int(self.depth.shape[0])

    def rows_of(self, well) -> np.ndarray:
        return np.flatnonzero(self.well_ids == well)


@dataclass
class LabeledDataset:
    """Feature matrix with binary labels and per-row well membership."""

    X: np.ndarray
    y: np.ndarray          # LOW / HIGH per row
    well_ids: np.ndarray
    feature_names: list
    wells: list


@dataclass
class SplitPlan:
    """Row indices of one leave-one-well-out blind test."""

    test_well: str
    train_rows: np.ndarray  # minority rows of the other wells
    test_rows: np.ndarray   # majority rows of the other wells + every row of test_well


@dataclass
class NormStats:
    """Per-feature z-score parameters (population convention)."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def identity(d: int) -> "NormStats":
        return NormStats(np.zeros(d), np.ones(d))


def _parse_column(cells) -> tuple:
    """Floats of one column and the index of its first unparsable cell.

    The index is len(cells) when every cell parses. Blank cells, the null
    sentinel and NaN text become NaN. One C-level float() pass reads a clean
    column; only a column where it raised goes cell by cell, stripped and
    with U+2212 read as a minus sign, and stops at the first bad cell: the
    cells after it stay NaN, since that row or an earlier one is reported.
    """
    n = len(cells)
    bad = n
    try:
        values = np.fromiter(map(float, cells), float, count=n)
    except ValueError:
        values = np.full(n, math.nan)
        for i, text in enumerate(cells):
            text = text.strip().replace("−", "-")
            try:
                values[i] = float(text) if text else math.nan
            except ValueError:
                bad = i
                break
    values[(values == SENTINEL) | np.isnan(values)] = math.nan
    return values, bad


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _file_line(path, record: int) -> int:
    """File line on which csv record number `record` (the header is 1) starts.

    It differs from the record number once a quoted cell holds a newline.
    Only a faulty file needs it, so this second read is on the error path.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, record - 1):
            pass
        return reader.line_num + 1


def _parse_chunk(path, rows: list, records: np.ndarray, width: int, col: dict,
                 feature_names: list, target_name: str) -> tuple:
    """Stripped well ids and a float block [depth, features..., target] of csv rows.

    Raises the error of the first faulty row, so a row is reported before
    every later one, whichever check each fails. Within that row the depth
    is checked first (not a number, then missing), then the features in
    schema order and the target (not a number), then the target's range.
    """
    n_ok = _first(np.fromiter(map(len, rows), np.intp, count=len(rows)) < width)
    columns = list(zip(*rows[:n_ok])) or [()] * width  # n_ok == 0: the first row is short
    names = ["depth", *feature_names, target_name]
    block = np.empty((n_ok, len(names)))
    bads = []  # each column's first unparsable row
    for j, name in enumerate(names):
        block[:, j], bad_j = _parse_column(columns[col[name]])
        bads.append(bad_j)
    depth, target = block[:, 0], block[:, -1]
    bad = min(*bads, _first(np.isnan(depth) | (target < 0.0) | (target > 1.0)))
    if bad < n_ok:
        line_no, cells = _file_line(path, int(records[bad])), rows[bad]
        for j, name in enumerate(names):
            text = cells[col[name]]
            if bads[j] == bad:
                raise NonNumericCell(line_no, name, text.strip().replace("−", "-"))
            if j == 0 and math.isnan(depth[bad]):
                raise NonNumericCell(line_no, name, text)
        raise MalformedFile(f"{path}: line {line_no}: target {target[bad]} outside [0, 1]")
    if n_ok < len(rows):
        raise MalformedFile(f"{path}: line {_file_line(path, int(records[n_ok]))} has {len(rows[n_ok])} cells, expected {width}")
    return list(map(str.strip, columns[col["well"]])), block


def load_table(path, schema: list | None = None) -> WellTable:
    """Read a well CSV whose header carries well, depth, and the schema columns.

    The last schema column is the target; schema=None takes every header
    column but well and depth, in header order. Empty cells and the -999.25
    null sentinel are marked missing. Rows are grouped by well (first-appearance
    order) and sorted by depth; a duplicated depth within a well is an error.

    The file is read in chunks of _CHUNK_ROWS csv rows, and each chunk is
    parsed a column at a time, so per-row temporaries stay bounded whatever
    the file size. The first faulty row in file order is the one reported,
    at the file line where it starts: a short row, then within a row the
    depth, the features in schema order and the target. A repeated depth is
    reported once the whole file has parsed, for the first well in well
    order. A leading UTF-8 byte-order mark is skipped; bytes that are not
    UTF-8 raise MalformedFile.
    """
    if schema is not None and len(schema) < 2:
        raise MalformedFile("schema needs at least one feature column and a target column")

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:  # no line at all, or a blank first line
                raise MalformedFile(f"{path}: empty file")
            header = [h.strip() for h in header]
            if schema is None:
                schema = [h for h in header if h not in ("well", "depth")]
                if len(schema) < 2:
                    raise MalformedFile(f"{path}: need at least one feature column and a target column")
            feature_names, target_name = list(schema[:-1]), schema[-1]
            for name in ("well", "depth", *schema):
                if name not in header:
                    raise MalformedFile(f"{path}: missing column {name!r}")
            col = {name: header.index(name) for name in header}

            well_rank: dict = {}
            ranks, blocks = [], []
            first_record = 2
            while rows := list(islice(reader, _CHUNK_ROWS)):
                records = np.arange(first_record, first_record + len(rows))
                first_record += len(rows)
                filled = np.fromiter(map(len, map(str.strip, map("".join, rows))), np.intp, count=len(rows)) > 0
                if not filled.all():
                    rows, records = list(compress(rows, filled)), records[filled]
                well_ids, block = _parse_chunk(path, rows, records, len(header), col, feature_names, target_name)
                for w in dict.fromkeys(well_ids):
                    well_rank.setdefault(w, len(well_rank))
                ranks.append(np.fromiter(map(well_rank.__getitem__, well_ids), np.intp, count=len(well_ids)))
                blocks.append(block)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc

    wells = list(well_rank)
    rank = np.concatenate(ranks) if ranks else np.empty(0, dtype=np.intp)
    values = np.concatenate(blocks) if blocks else np.empty((0, len(schema) + 1))
    del blocks  # the chunks are copied into values; do not hold both to the end
    order = np.lexsort((values[:, 0], rank))  # stable: equal depths keep file order
    rank, depth = rank[order], values[order, 0]
    dup = _first((rank[1:] == rank[:-1]) & (depth[1:] == depth[:-1]))
    if dup < depth.size - 1:
        raise MalformedFile(f"{path}: well {wells[rank[dup + 1]]!r} repeats depth {float(depth[dup + 1])}")

    return WellTable(
        wells=wells,
        well_ids=np.array(wells)[rank],
        depth=depth,
        features=values[order, 1:-1],
        target=values[order, -1],
        feature_names=feature_names,
        target_name=target_name,
    )


def _format_value(v: float) -> str:
    if math.isnan(v):
        return ""
    return f"{v:.6g}"


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell of several: quoted only when it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty last cell's "," and the "\r\n"


def write_table(t: WellTable, path) -> None:
    """Write a table as a well CSV that load_table reads back.

    The file is the csv module's default dialect: a header row
    `well,depth,<features...>,<target>`, then one row per table row with the
    well id, quoted only when it holds a comma, a quote or a line break, and
    each value in `.6g` form (`inf`, `-inf` and `-0` included); a NaN value is
    an empty cell. Every line ends in CRLF.

    Rows are formatted _CHUNK_ROWS at a time, one % template per row, and
    each distinct well id is quoted once; only a row holding a NaN is
    formatted cell by cell.
    """
    template = "%s," + ",".join(["%.6g"] * (t.features.shape[1] + 2)) + "\r\n"
    cells: dict = {}  # well id -> its csv cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["well", "depth", *t.feature_names, t.target_name])
        for start in range(0, t.n_rows, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            block = np.vstack((t.depth[rows], t.features[rows].T, t.target[rows]))
            ids = t.well_ids[rows].tolist()
            for w in set(ids).difference(cells):
                cells[w] = _csv_cell(w)
            ids = list(map(cells.__getitem__, ids))
            columns = block.tolist()
            lines = list(map(template.__mod__, zip(ids, *columns)))
            for i in np.flatnonzero(np.isnan(block).any(axis=0)).tolist():
                values = ",".join(_format_value(c[i]) for c in columns)
                lines[i] = f"{ids[i]},{values}\r\n"
            fh.write("".join(lines))


def _subset(t: WellTable, idx: np.ndarray) -> WellTable:
    wid = t.well_ids[idx]
    return WellTable(
        wells=[w for w in t.wells if (wid == w).any()],
        well_ids=wid,
        depth=t.depth[idx],
        features=t.features[idx],
        target=t.target[idx],
        feature_names=list(t.feature_names),
        target_name=t.target_name,
    )


def drop_invalid(t: WellTable) -> WellTable:
    """Remove every row with a missing feature or a missing target."""
    keep = np.isfinite(t.features).all(axis=1) & np.isfinite(t.target)
    if not keep.any():
        raise EmptyResult("no rows with complete values")
    return _subset(t, np.flatnonzero(keep))


def resample_uniform(t: WellTable, spacing: float | None = AUTO) -> WellTable:
    """Re-grid each well onto uniformly spaced depths by linear interpolation.

    spacing=AUTO uses the median consecutive depth step of each well. The grid
    runs from the first to the last observed depth; nothing is extrapolated.
    A well whose grid would exceed MAX_GRID_ROWS rows raises InvalidConfig.
    Run drop_invalid first: missing values would bleed into their neighbors.
    """
    if spacing is not AUTO and not (spacing > 0 and math.isfinite(spacing)):
        raise InvalidConfig(f"spacing must be positive and finite, got {spacing}")
    blocks = []
    for w in t.wells:
        idx = t.rows_of(w)
        if idx.size < 2:
            raise SingleRowWell(f"well {w!r} has {idx.size} row(s); need at least 2 to interpolate")
        depths = t.depth[idx]
        if not np.isfinite(depths).all():
            raise NonFiniteInput(f"well {w!r} has a non-finite depth")
        step = float(np.median(np.diff(depths))) if spacing is AUTO else float(spacing)
        steps = (depths[-1] - depths[0]) / step + 1e-9
        if not steps < MAX_GRID_ROWS:
            raise InvalidConfig(
                f"well {w!r}: depth spacing {step:g} makes {steps + 1:.3g} grid rows, "
                f"over the cap of {MAX_GRID_ROWS:,}")
        count = int(math.floor(steps)) + 1
        grid = depths[0] + step * np.arange(count)
        feats = np.column_stack([np.interp(grid, depths, t.features[idx, j])
                                 for j in range(t.features.shape[1])])
        tgt = np.interp(grid, depths, t.target[idx])
        blocks.append((np.full(count, w, dtype=t.well_ids.dtype), grid, feats, tgt))
    return WellTable(
        wells=list(t.wells),
        well_ids=np.concatenate([b[0] for b in blocks]),
        depth=np.concatenate([b[1] for b in blocks]),
        features=np.vstack([b[2] for b in blocks]),
        target=np.concatenate([b[3] for b in blocks]),
        feature_names=list(t.feature_names),
        target_name=t.target_name,
    )


def binarize_target(t: WellTable, threshold: float = 0.7) -> LabeledDataset:
    """Label each row HIGH when target >= threshold, LOW otherwise."""
    if not 0.0 < threshold < 1.0:
        raise InvalidConfig(f"threshold must lie in (0, 1), got {threshold}")
    if not np.isfinite(t.target).all() or not np.isfinite(t.features).all():
        raise NonFiniteInput("table still has missing or infinite cells; run drop_invalid first")
    y = np.where(t.target >= threshold, HIGH, LOW)
    return LabeledDataset(
        X=t.features.copy(),
        y=y.astype(int),
        well_ids=t.well_ids.copy(),
        feature_names=list(t.feature_names),
        wells=list(t.wells),
    )


def split_leave_one_well_out(d: LabeledDataset, test_well) -> SplitPlan:
    """Hold one well out.

    Training rows are the minority (LOW) rows of the other wells. Test rows
    are the majority rows of those wells plus every row of the held-out well,
    so the blind well is scored in full.
    """
    if test_well not in d.wells:
        raise UnknownWell(f"unknown well {test_well!r}; have {d.wells}")
    in_test_well = d.well_ids == test_well
    train = np.flatnonzero(~in_test_well & (d.y == LOW))
    if train.size == 0:
        raise NoMinorityTrainingData(f"no LOW rows outside well {test_well!r}")
    test = np.flatnonzero(in_test_well | (d.y == HIGH))
    return SplitPlan(test_well=test_well, train_rows=train, test_rows=test)


def normalize_fit(X, rows=None) -> NormStats:
    """Per-feature mean and standard deviation over the given rows.

    Population convention (divide by n). A constant feature gets std 1 so that
    applying the stats maps it to zero instead of dividing by zero.
    """
    X = np.asarray(X, dtype=float)
    sub = X if rows is None else X[np.asarray(rows)]
    if sub.shape[0] == 0:
        raise EmptyRowSet("cannot fit normalization on zero rows")
    mean = sub.mean(axis=0)
    std = sub.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return NormStats(mean=mean, std=std)


def normalize_apply(stats: NormStats, X) -> np.ndarray:
    """Z-score a 2-d block of rows; the one shape check of every model's input."""
    X = np.asarray(X, dtype=float)
    d = stats.mean.size
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"expected a 2-d matrix of {d} features, got shape {X.shape}")
    return (X - stats.mean) / stats.std


def histogram(values, bins: int):
    """Equal-width histogram over [min, max].

    Bins are half-open except the last, which also takes the maximum value.
    Returns (edges, counts) with len(edges) == bins + 1.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("histogram of nothing")
    if bins < 1:
        raise InvalidConfig("need at least one bin")
    vmin, vmax = float(v.min()), float(v.max())
    edges = np.linspace(vmin, vmax, bins + 1)
    counts = np.zeros(bins, dtype=int)
    if vmax == vmin:
        counts[0] = v.size
    else:
        pos = (v - vmin) / (vmax - vmin) * bins
        idx = np.minimum(pos.astype(int), bins - 1)
        np.add.at(counts, idx, 1)
    return edges, counts


@dataclass
class SynthConfig:
    """Shape of a generated benchmark table.

    The first n_features - 2 features carry the class structure; the last two
    are pure noise. Minority rows form one compact cluster shared by all
    wells; majority rows come from a broader distribution whose center drifts
    a little from well to well.
    """

    n_wells: int = 4
    rows_per_well: int = 500
    skew: float = 0.97
    n_features: int = 6
    seed: int = 1


def _well_names(k: int) -> list:
    if k <= 26:
        return [chr(ord("A") + i) for i in range(k)]
    return [f"W{i + 1:03d}" for i in range(k)]


def gen_synthetic(cfg: SynthConfig) -> WellTable:
    """Deterministic imbalanced multi-well table for benchmarks and tests."""
    if cfg.n_wells < 1:
        raise InvalidConfig("need at least one well")
    if cfg.rows_per_well < 2:
        raise InvalidConfig("need at least two rows per well")
    if not 0.0 < cfg.skew < 1.0:
        raise InvalidConfig(f"skew must lie in (0, 1), got {cfg.skew}")
    if cfg.n_features < 2:
        raise InvalidConfig("need at least two features")
    if cfg.seed < 0:
        raise InvalidConfig(f"seed must be non-negative, got {cfg.seed}")

    rng = np.random.default_rng(cfg.seed)
    d = cfg.n_features
    n_info = d - 2
    names = _well_names(cfg.n_wells)
    n = cfg.rows_per_well
    m = max(1, round(n * (1.0 - cfg.skew)))  # minority rows per well

    ids, depths, feats, targets = [], [], [], []
    for w in names:
        drift = rng.normal(0.0, 0.4, size=n_info)
        minority = np.zeros(n, dtype=bool)
        minority[rng.choice(n, size=m, replace=False)] = True

        X = np.empty((n, d))
        # Minority rows share a latent factor, so the cluster is a tight
        # correlated streak rather than an axis-aligned blob.
        u = rng.normal(0.0, 1.0, size=m)
        X[minority, :n_info] = 0.55 * u[:, None] + rng.normal(0.0, 0.25, size=(m, n_info))
        X[~minority, :n_info] = rng.normal(1.2 + drift, 1.8, size=(n - m, n_info))
        X[:, n_info:] = rng.normal(0.0, 1.0, size=(n, 2))

        t = np.empty(n)
        t[minority] = rng.uniform(0.02, 0.68, size=m)
        t[~minority] = rng.uniform(0.70, 1.0, size=n - m)

        ids.append(np.full(n, w))
        depths.append(1000.0 + 0.5 * np.arange(n))
        feats.append(X)
        targets.append(t)

    return WellTable(
        wells=names,
        well_ids=np.concatenate(ids),
        depth=np.concatenate(depths),
        features=np.vstack(feats),
        target=np.concatenate(targets),
        feature_names=[f"f{i + 1}" for i in range(d)],
        target_name="sw",
    )
