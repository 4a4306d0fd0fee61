"""Ingest, clean, resample, label, split, and synthesize well-log tables.

A table is columnar: per-row well id, depth, a feature block, and one
real-valued target in [0, 1]. NaN marks a missing cell. Within each well the
rows are sorted by strictly increasing depth.

load_table reads a UTF-8 CSV, with or without a byte-order mark: the csv
module reads the header and numpy's C reader (np.loadtxt) the data rows in
one pass. A file the C reader refuses, a blank cell or any fault, is read
again by the csv path, one row at a time in file order: one float() call per
schema cell, and only a row that holds a blank, a U+2212 minus sign or bad
text is parsed cell by cell. That path names every error: a faulty file is
reported at its first faulty row in file order, at the file line where that
row starts. Both paths load the same table bit for bit.

The ingest chain load_table -> drop_invalid -> resample_uniform skips the
work a clean, depth-ordered table does not need, and every result keeps the
bytes the general path gives. Rows already grouped by well with strictly
increasing depths are not sorted: the loaded depth, features and target are
views of one float block. drop_invalid of a table with no missing cell
returns a table that shares the input's arrays. resample_uniform always
returns new arrays, and copies a well's values where its grid equals its
observed depths instead of interpolating them.

write_table writes the file that load_table reads: a header row, then per
row the well id with the csv module's minimal quoting and every value in
`.6g` form, an empty cell for NaN, each line ended by CRLF. It formats a
chunk of rows at a time, one % template per row. Like every file the package
writes, it goes out through open_new, which replaces an old file by a new one
where the directory allows, instead of truncating it.
"""

import csv
import io
import math
import os
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

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
# the most grid rows resample_uniform gives one well, bins histogram makes and
# cells gen_synthetic fills, each refused before it allocates: a tiny step or
# a huge count would otherwise escape as a MemoryError
MAX_GRID_ROWS = 10_000_000

# Smallest scaling std normalize_fit keeps: below it the variance is subnormal
# (the feature's values differ by less than about 1e-154), and the std is 1.
STD_FLOOR = math.sqrt(np.finfo(float).tiny)

# rows that write_table formats at a time. The chunk's stacked values, their
# Python floats and its text lines are the writer's per-row temporaries, so
# this bounds them: at 256 rows, tens of kilobytes.
_CHUNK_ROWS = 256


def _wells(table) -> list:
    """The distinct well ids, in first-appearance order: the first id of each
    run of equal ids, with repeats then removed by dict.fromkeys."""
    ids = table.well_ids
    heads = ids[:1].tolist() + ids[1:][ids[1:] != ids[:-1]].tolist()
    return list(dict.fromkeys(heads))


@dataclass
class WellTable:
    """Columnar well-log table; NaN marks a missing cell."""

    well_ids: np.ndarray   # (n,) per-row well id
    depth: np.ndarray      # (n,)
    features: np.ndarray   # (n, d)
    target: np.ndarray     # (n,)
    feature_names: list
    target_name: str

    wells = property(_wells)

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

    wells = property(_wells)


@dataclass
class SplitPlan:
    """Row indices of one leave-one-well-out blind test, each in rising order."""

    test_well: str
    train_rows: np.ndarray  # minority rows of the other wells
    test_rows: np.ndarray   # majority rows of the other wells + every row of test_well
    fit_rows: np.ndarray    # every row of the other wells: scaling and the baselines fit on them


@dataclass
class NormStats:
    """Per-feature z-score parameters (population convention)."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def identity(d: int) -> "NormStats":
        return NormStats(np.zeros(d), np.ones(d))


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _rank(well_ids: list, well_rank: dict) -> np.ndarray:
    """Each id's rank in first-appearance order; well_rank (id -> rank) gains the new ids."""
    for w in dict.fromkeys(well_ids):
        well_rank.setdefault(w, len(well_rank))
    return np.fromiter(map(well_rank.__getitem__, well_ids), np.intp, count=len(well_ids))


def _float_block(rows: np.ndarray, fields: list) -> np.ndarray:
    """The (n, len(fields)) float block of the named fields of rows, as a new array.

    _read_fast lays the float fields out first in each record, in schema
    order, so the block is one strided copy of the records' leading bytes.
    A schema that repeats a column names one field twice: column_stack then.
    """
    if len(set(fields)) < len(fields):
        return np.column_stack([rows[f] for f in fields])
    floats = rows[fields]  # a view that leaves the object fields out, so it exports a buffer
    return np.ndarray((rows.size, len(fields)), float, floats, 0, (rows.itemsize, 8)).copy()


def _read_fast(fh, width: int, col: dict, names: list):
    """Wells, per-row well ranks and the float block [depth, features..., target], or None.

    fh stands just after the header record. np.loadtxt's C reader parses
    every data row into one structured array: a float field per column in
    names, laid out first in the record in names order, and an object field
    per other column. Then the sentinel and NaN rule of the csv path
    applies. It has no error handling of its own: None, and the csv path
    reads the file again, when the reader refuses the rows (a blank cell, a
    U+2212 minus sign, a row too short or too long, any text float() reads
    but the C parser does not), when no data row follows the header, when a
    depth is missing or a target lies outside [0, 1], and when the well
    column is also one of names.

    Only the first raw id of each run of equal raw ids is stripped and
    ranked: a run's rows share its rank.
    """
    numeric = [col[name] for name in names]
    if col["well"] in numeric:
        return None
    first = next((line for line in fh if line.strip()), None)  # csv skips blank lines too
    if first is None:  # and np.loadtxt would warn of an empty input
        return None
    # fields named by position, since header names may repeat; loadtxt fills
    # them in file order wherever they lie in the record
    floats = list(dict.fromkeys(numeric))
    others = [j for j in range(width) if j not in floats]
    offset = {j: 8 * k for k, j in enumerate(floats + others)}
    dtype = np.dtype({"names": [f"c{j}" for j in range(width)],
                      "formats": [float if j in floats else object for j in range(width)],
                      "offsets": [offset[j] for j in range(width)], "itemsize": 8 * width})
    try:
        rows = np.loadtxt(chain((first,), fh), dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)
    except ValueError:
        return None
    block = _float_block(rows, [f"c{j}" for j in numeric])
    block[(block == SENTINEL) | np.isnan(block)] = math.nan
    if (np.isnan(block[:, 0]) | (block[:, -1] < 0.0) | (block[:, -1] > 1.0)).any():
        return None
    ids = rows[f"c{col['well']}"]
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    well_rank: dict = {}
    head_rank = _rank(list(map(str.strip, ids[heads].tolist())), well_rank)
    return list(well_rank), np.repeat(head_rank, np.diff(heads, append=ids.size)), block


def _parse_cells(cells: tuple, names: list, line_no: int) -> list:
    """Floats of one row's schema cells, read one cell at a time.

    Each cell is stripped and a U+2212 minus sign read as "-"; a blank cell
    is NaN and any other text float() refuses raises NonNumericCell. A
    missing depth (NaN or the sentinel) stops the read, so the caller
    reports it before any later cell.
    """
    floats = []
    for name, text in zip(names, cells):
        text = text.strip().replace("−", "-")
        try:
            floats.append(float(text) if text else math.nan)
        except ValueError:
            raise NonNumericCell(line_no, name, text) from None
        if floats[0] != floats[0] or floats[0] == SENTINEL:
            break
    return floats


def _read_csv(path, reader, width: int, col: dict, feature_names: list, target_name: str):
    """Wells, per-row well ranks and the float block of the csv rows after the header.

    One row at a time, in file order, so the first faulty row raises: a
    short row, then within a row the depth (not a number, then missing), the
    features in schema order and the target (not a number), then the
    target's range. Each row is named by the file line it starts on.
    """
    names = ["depth", *feature_names, target_name]
    schema_cells = itemgetter(*(col[name] for name in names))
    well = col["well"]
    well_rank: dict = {}
    values, ranks = array("d"), array("q")
    start = reader.line_num + 1
    for row in reader:
        line_no, start = start, reader.line_num + 1
        if len(row) < width:
            if not "".join(row).strip():  # a blank or comma-only row
                continue
            raise MalformedFile(f"{path}: line {line_no} has {len(row)} cells, expected {width}")
        cells = schema_cells(row)
        try:
            floats = list(map(float, cells))
        except ValueError:
            if not "".join(row).strip():  # a comma-only row of full width
                continue
            floats = _parse_cells(cells, names, line_no)
        depth, target = floats[0], floats[-1]
        if depth != depth or depth == SENTINEL:
            raise NonNumericCell(line_no, "depth", cells[0])
        if not 0.0 <= target <= 1.0 and target == target and target != SENTINEL:
            raise MalformedFile(f"{path}: line {line_no}: target {target} outside [0, 1]")
        values.extend(floats)
        ranks.append(well_rank.setdefault(row[well].strip(), len(well_rank)))
    block = np.frombuffer(values).reshape(-1, len(names))
    block[(block == SENTINEL) | np.isnan(block)] = math.nan
    return list(well_rank), np.array(ranks, dtype=np.intp), block


def _sorted_table(path, wells: list, rank: np.ndarray, values: np.ndarray,
                  feature_names: list, target_name: str) -> WellTable:
    """The table of parsed rows, grouped by well rank and sorted by depth.

    Rows already grouped by rank with strictly increasing depths are taken as
    they stand: depth, features and target are views of values. Any other
    order is sorted into new arrays, and a depth repeated within a well
    raises MalformedFile for the first well in well order.
    """
    step = rank[1:] - rank[:-1]
    if ((step > 0) | ((step == 0) & (values[1:, 0] > values[:-1, 0]))).all():
        depth, features, target = values[:, 0], values[:, 1:-1], values[:, -1]
    else:
        order = np.lexsort((values[:, 0], rank))  # stable: equal depths keep file order
        rank, depth = rank[order], values[order, 0]
        dup = _first((rank[1:] == rank[:-1]) & (depth[1:] == depth[:-1]))
        if dup < depth.size - 1:
            raise MalformedFile(f"{path}: well {wells[rank[dup + 1]]!r} repeats depth {float(depth[dup + 1])}")
        features, target = values[order, 1:-1], values[order, -1]
    return WellTable(
        well_ids=np.array(wells)[rank],
        depth=depth,
        features=features,
        target=target,
        feature_names=feature_names,
        target_name=target_name,
    )


def load_table(path, schema: list | None = None) -> WellTable:
    """Read a well CSV whose header carries well, depth, and the schema columns.

    The last schema column is the target; schema=None takes every header
    column but well and depth, in header order. A header that names well,
    depth or a schema column twice is malformed, as only one copy could
    load; a schema may repeat a column the header names once. Empty cells
    and the -999.25 null sentinel are marked missing. Rows are grouped by
    well (first-appearance order) and sorted by depth; a duplicated depth
    within a well is an error.
    A file whose rows are already so ordered, with strictly increasing depths
    in each well, as write_table writes them, is taken in file order without
    a sort: the table's depth, features and target are then views of one
    (n, 2 + d) float block. Any other order is sorted into new arrays.

    The csv module reads the header. np.loadtxt's C reader then parses the
    data rows in one pass (_read_fast): every file write_table writes without
    a NaN takes this path. Where it refuses (a blank cell, a U+2212 minus
    sign, a row too short or too long, a missing depth, a target outside
    [0, 1], any other fault), the file is read again by the csv path, one
    row at a time (_read_csv). A 32,000-row file with one blank cell thus
    loads in about 0.07-0.09 s against 0.023 s without it (2 cores,
    Python 3.11, numpy 2.4): the refused C pass, up to 0.02 s when the
    blank is in the last row, and then the row loop. Both paths give the
    same table bit for bit, and either keeps the loader's peak memory within
    a few times the table's size whatever the file size.

    The csv path names every error: the first faulty row in file order is
    the one reported, at the file line where it starts: a short row, then
    within a row the depth, the features in schema order and the target. A
    repeated depth is reported once the whole file has parsed, for the first
    well in well order. A leading UTF-8 byte-order mark is skipped; bytes that
    are not UTF-8 raise MalformedFile, and so does a row the csv module
    refuses (a cell over its field size limit of 131,072 characters), named
    by the line the reader stopped on. A file with no data row raises EmptyInput.
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
                if header.count(name) > 1:
                    raise MalformedFile(f"{path}: column {name!r} appears {header.count(name)} "
                                        "times in the header")
            col = {name: header.index(name) for name in header}

            parsed = _read_fast(fh, len(header), col, ["depth", *schema])
            if parsed is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, checked above
                parsed = _read_csv(path, reader, len(header), col, feature_names, target_name)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # a cell over the csv module's field size limit, say
        raise MalformedFile(f"{path}: line {reader.line_num}: {exc}") from exc
    if not parsed[1].size:  # a header alone, or blank and comma-only lines after it
        raise EmptyInput(f"{path}: no data rows")
    return _sorted_table(path, *parsed, feature_names, target_name)


def _format_value(v: float) -> str:
    if math.isnan(v):
        return ""
    return f"{v:.6g}"


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it as one cell of several: quoted only when it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty last cell's "," and the "\r\n"


def open_new(path, newline=None):
    """Open path for writing UTF-8 text as a new file, like `cp --remove-destination`.

    Whatever file path names is unlinked first and a new one created in its
    place, so a hard link to the old file keeps the old bytes, a symlink is
    replaced and not followed, and a read-only file in a writable directory
    is replaced. A directory at path raises IsADirectoryError. Where the
    directory refuses the unlink (not writable, or sticky), the file is
    truncated in place as a plain open would. Truncating a file that was
    written a moment ago waits on its writeback on ext4, and replacing it
    does not; nothing is synced either way. newline is open's.
    """
    try:
        os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    return open(path, "w", newline=newline, encoding="utf-8")


def write_table(t: WellTable, path) -> None:
    """Write a table as a well CSV that load_table reads back.

    The file is the csv module's default dialect: a header row
    `well,depth,<features...>,<target>`, then one row per table row with the
    well id, quoted only when it holds a comma, a quote or a line break, and
    each value in `.6g` form (`inf`, `-inf` and `-0` included); a NaN value is
    an empty cell. Every line ends in CRLF.

    Rows are formatted _CHUNK_ROWS at a time, one % template per row, and
    each distinct well id is quoted once; only a row holding a NaN is
    formatted cell by cell. The file is a new one (open_new).
    """
    template = "%s," + ",".join(["%.6g"] * (t.features.shape[1] + 2)) + "\r\n"
    cells: dict = {}  # well id -> its csv cell
    with open_new(path, newline="") as fh:
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


def drop_invalid(t: WellTable) -> WellTable:
    """Remove every row with a missing feature or a missing target.

    When every row is complete the result shares t's arrays; otherwise it
    holds new arrays of the kept rows.
    """
    keep = np.isfinite(t.features).all(axis=1) & np.isfinite(t.target)
    if not keep.any():
        raise EmptyResult("no rows with complete values")
    if keep.all():
        return WellTable(t.well_ids, t.depth, t.features, t.target, list(t.feature_names), t.target_name)
    idx = np.flatnonzero(keep)
    return WellTable(t.well_ids[idx], t.depth[idx], t.features[idx], t.target[idx],
                     list(t.feature_names), t.target_name)


def _median(v: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, without the
    numpy.ma import np.median pays on first use: np.mean of the middle one or
    two sorted values, which also gives a zero median as +0.0."""
    s = np.sort(v)
    h = s.size // 2
    return float(np.mean(s[h - 1 + s.size % 2:h + 1]))


def resample_uniform(t: WellTable, spacing: float | None = AUTO) -> WellTable:
    """Re-grid each well onto uniformly spaced depths by linear interpolation.

    spacing=AUTO uses the median consecutive depth step of each well; a
    median step that is not positive (repeated depths) raises InvalidConfig.
    The grid runs from the first to the last observed depth; nothing is
    extrapolated. A well whose grid would exceed MAX_GRID_ROWS rows raises
    InvalidConfig.
    Run drop_invalid first: missing values would bleed into their neighbors.

    Every well is checked before any output is allocated; the result holds
    new arrays, filled well by well. A well whose grid equals its observed
    depths takes its values as they stand, which is what np.interp returns
    at each of its own sample points.
    """
    if spacing is not AUTO and not (spacing > 0 and math.isfinite(spacing)):
        raise InvalidConfig(f"spacing must be positive and finite, got {spacing}")
    grids = []
    for w in t.wells:
        idx = t.rows_of(w)
        if idx.size < 2:
            raise SingleRowWell(f"well {w!r} has {idx.size} row(s); need at least 2 to interpolate")
        depths = t.depth[idx]
        if not np.isfinite(depths).all():
            raise NonFiniteInput(f"well {w!r} has a non-finite depth")
        step = _median(np.diff(depths)) if spacing is AUTO else float(spacing)
        if not step > 0:
            raise InvalidConfig(f"well {w!r}: median depth step {step:g} is not positive; "
                                f"its depths repeat or fall")
        steps = (depths[-1] - depths[0]) / step + 1e-9
        if not steps < MAX_GRID_ROWS:
            raise InvalidConfig(
                f"well {w!r}: depth spacing {step:g} makes {steps + 1:.3g} grid rows, "
                f"over the cap of {MAX_GRID_ROWS:,}")
        grids.append((w, idx, depths, depths[0] + step * np.arange(int(math.floor(steps)) + 1)))

    n = sum(grid.size for *_, grid in grids)
    out = WellTable(
        well_ids=np.empty(n, dtype=t.well_ids.dtype),
        depth=np.empty(n),
        features=np.empty((n, t.features.shape[1])),
        target=np.empty(n),
        feature_names=list(t.feature_names),
        target_name=t.target_name,
    )
    start = 0
    for w, idx, depths, grid in grids:
        rows = slice(start, start + grid.size)
        start = rows.stop
        out.well_ids[rows] = w
        out.depth[rows] = grid
        if np.array_equal(grid, depths):
            out.features[rows] = t.features[idx]
            out.target[rows] = t.target[idx]
            continue
        for j in range(t.features.shape[1]):
            out.features[rows, j] = np.interp(grid, depths, t.features[idx, j])
        out.target[rows] = np.interp(grid, depths, t.target[idx])
    return out


def binarize_target(t: WellTable, threshold: float = 0.7) -> LabeledDataset:
    """Label each row HIGH when target >= threshold, LOW otherwise.

    X and well_ids are t's arrays, shared, not copied: rebind X, never write into it."""
    if not 0.0 < threshold < 1.0:
        raise InvalidConfig(f"threshold must lie in (0, 1), got {threshold}")
    if not np.isfinite(t.target).all() or not np.isfinite(t.features).all():
        raise NonFiniteInput("table still has missing or infinite cells; run drop_invalid first")
    y = np.where(t.target >= threshold, HIGH, LOW)
    return LabeledDataset(
        X=t.features,
        y=y.astype(int),
        well_ids=t.well_ids,
        feature_names=list(t.feature_names),
    )


def split_leave_one_well_out(d: LabeledDataset, test_well) -> SplitPlan:
    """Hold one well out.

    Training rows are the minority (LOW) rows of the other wells. Test rows
    are the majority rows of those wells plus every row of the held-out well,
    so the blind well is scored in full. Fit rows are every row of the other wells.
    """
    if test_well not in d.wells:
        raise UnknownWell(f"unknown well {test_well!r}; have {d.wells}")
    others = d.well_ids != test_well
    train = np.flatnonzero(others & (d.y == LOW))
    if train.size == 0:
        raise NoMinorityTrainingData(f"no LOW rows outside well {test_well!r}")
    test = np.flatnonzero(~others | (d.y == HIGH))
    return SplitPlan(test_well=test_well, train_rows=train, test_rows=test,
                     fit_rows=np.flatnonzero(others))


def normalize_fit(X, rows=None) -> NormStats:
    """Per-feature mean and standard deviation over the given rows.

    Population convention (divide by n). A constant feature, or one whose
    std lies below STD_FLOOR, gets std 1 so that applying the stats maps it
    near zero instead of dividing by zero or by the root of a subnormal
    variance, which model files refuse. A mean or std that is not finite,
    because a feature holds a NaN or an inf or its values overflow the sums
    (near 1e308), raises NonFiniteInput.
    """
    X = np.asarray(X, dtype=float)
    sub = X if rows is None else X[np.asarray(rows)]
    if sub.shape[0] == 0:
        raise EmptyRowSet("cannot fit normalization on zero rows")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is raised below
        mean = sub.mean(axis=0)
        std = sub.std(axis=0)
    bad = _first(~(np.isfinite(mean) & np.isfinite(std)))
    if bad < mean.size:
        raise NonFiniteInput(
            f"feature scaling failed: column {bad} has mean {mean[bad]} and std {std[bad]} over the "
            "fitted rows; its values hold a NaN or an inf, or overflow near 1e308")
    std = np.where(std < STD_FLOOR, 1.0, std)
    return NormStats(mean=mean, std=std)


def normalize_apply(stats: NormStats, X) -> np.ndarray:
    """Z-score a 2-d block of rows; the one shape check of every model's input.

    Returns a new (n, d) array in Fortran order, bit-equal to
    (X - mean) / std: each feature's values lie contiguous, so every model's
    per-feature loop runs along the samples. A row or class gather of it
    (Z[mask]) comes out C-ordered.
    """
    X = np.asarray(X, dtype=float)
    d = stats.mean.size
    if X.ndim != 2 or X.shape[1] != d:
        raise DimensionMismatch(f"expected a 2-d matrix of {d} features, got shape {X.shape}")
    # one feature-major (d, n) buffer, divided in place
    ZT = np.subtract(X.T, stats.mean[:, np.newaxis], out=np.empty((d, X.shape[0])))
    ZT /= stats.std[:, np.newaxis]
    return ZT.T


def histogram(values, bins: int):
    """Equal-width histogram over [min, max].

    Bins are half-open except the last, which also takes the maximum value.
    Returns (edges, counts) with len(edges) == bins + 1. A bin count outside
    [1, MAX_GRID_ROWS] raises InvalidConfig; a NaN or infinite value, or a
    range max - min that overflows a float, NonFiniteInput.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptyInput("histogram of nothing")
    if bins < 1:
        raise InvalidConfig("need at least one bin")
    if bins > MAX_GRID_ROWS:
        raise InvalidConfig(f"{bins:,} bins is over the cap of {MAX_GRID_ROWS:,}")
    if not np.isfinite(v).all():
        raise NonFiniteInput("histogram values must be finite")
    vmin, vmax = float(v.min()), float(v.max())
    if vmax - vmin == math.inf:
        raise NonFiniteInput(f"histogram values must be finite with a finite range, "
                             f"got [{vmin!r}, {vmax!r}]")
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
    """Deterministic imbalanced multi-well table for benchmarks and tests, of
    at most MAX_GRID_ROWS cells (wells x rows x (features + 2))."""
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
    if cfg.n_wells * cfg.rows_per_well * (cfg.n_features + 2) > MAX_GRID_ROWS:
        raise InvalidConfig(f"{cfg.n_wells} wells x {cfg.rows_per_well} rows x {cfg.n_features + 2} "
                            f"columns is over the cap of {MAX_GRID_ROWS:,} cells")

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
        well_ids=np.concatenate(ids),
        depth=np.concatenate(depths),
        features=np.vstack(feats),
        target=np.concatenate(targets),
        feature_names=[f"f{i + 1}" for i in range(d)],
        target_name="sw",
    )
