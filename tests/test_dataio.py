import csv
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import welldesc.cli
from welldesc import (
    HIGH,
    LOW,
    NormStats,
    SynthConfig,
    WellTable,
    binarize_target,
    dataio,
    drop_invalid,
    gen_synthetic,
    histogram,
    load_table,
    normalize_apply,
    normalize_fit,
    resample_uniform,
    split_leave_one_well_out,
    write_table,
)
from welldesc.errors import (
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
    WelldescError,
)

SCHEMA = ["GR", "NPHI", "RHOB", "DT", "SW"]
_ARRAYS = ("well_ids", "depth", "features", "target")


def write_csv(path, rows, header="well,depth,GR,NPHI,RHOB,DT,SW"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def small_table(tmp_path, rows):
    return load_table(write_csv(tmp_path / "t.csv", rows), SCHEMA)


# ---------------------------------------------------------------- load_table

def test_load_three_valid_rows(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,101,11,0.3,2.4,82,0.6",
        "W1,102,12,0.4,2.5,84,0.7",
    ])
    assert t.n_rows == 3
    assert t.wells == ["W1"]
    assert t.feature_names == ["GR", "NPHI", "RHOB", "DT"]
    assert t.target_name == "SW"
    assert np.array_equal(t.depth, [100.0, 101.0, 102.0])
    assert t.features[0, 0] == 10.0 and t.target[2] == 0.7


def test_sentinel_cell_marked_missing(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,-999.25,0.2,2.3,80,0.5",
        "W1,101,11,0.3,2.4,82,0.6",
    ])
    assert np.isnan(t.features[0, 0])
    assert np.isfinite(t.features[1]).all()


def test_unicode_minus_sentinel_and_values(tmp_path):
    # the minus sign sometimes arrives as U+2212 from exported spreadsheets
    t = small_table(tmp_path, [
        "W1,100,−999.25,0.2,2.3,80,0.5",
        "W1,101,−5.5,0.3,2.4,82,0.6",
    ])
    assert np.isnan(t.features[0, 0])
    assert t.features[1, 0] == -5.5


def test_empty_cell_is_missing(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,,0.2,2.3,80,0.5",
        "W1,101,11,0.3,2.4,82,0.6",
    ])
    assert np.isnan(t.features[0, 0])


def test_header_without_depth_rejected(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["W1,10,0.2,2.3,80,0.5"],
                     header="well,GR,NPHI,RHOB,DT,SW")
    with pytest.raises(MalformedFile):
        load_table(path, SCHEMA)


@pytest.mark.parametrize("schema", [[], ["SW"]], ids=["empty", "target-only"])
def test_schema_without_a_feature_rejected(tmp_path, schema):
    path = write_csv(tmp_path / "t.csv", ["W1,100,10,0.2,2.3,80,0.5"])
    assert assert_same_outcome(path, schema) == "MalformedFile"


def test_header_missing_schema_column_rejected(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["W1,100,10,0.2,2.3,0.5"],
                     header="well,depth,GR,NPHI,RHOB,SW")
    with pytest.raises(MalformedFile):
        load_table(path, SCHEMA)


def test_non_numeric_cell_reports_position(tmp_path):
    path = write_csv(tmp_path / "bad.csv", [
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,101,oops,0.3,2.4,82,0.6",
    ])
    with pytest.raises(NonNumericCell) as err:
        load_table(path, SCHEMA)
    assert "GR" in str(err.value)
    assert "oops" in str(err.value)


def test_target_outside_unit_interval_rejected(tmp_path):
    path = write_csv(tmp_path / "bad.csv", ["W1,100,10,0.2,2.3,80,1.5"])
    with pytest.raises(MalformedFile):
        load_table(path, SCHEMA)


def test_rows_sorted_by_depth_within_well(tmp_path):
    t = small_table(tmp_path, [
        "W1,102,12,0.4,2.5,84,0.7",
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,101,11,0.3,2.4,82,0.6",
    ])
    assert np.array_equal(t.depth, [100.0, 101.0, 102.0])
    assert t.features[0, 0] == 10.0


def test_duplicate_depth_rejected(tmp_path):
    path = write_csv(tmp_path / "bad.csv", [
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,100,11,0.3,2.4,82,0.6",
    ])
    with pytest.raises(MalformedFile):
        load_table(path, SCHEMA)


def test_write_then_load_round_trip(tmp_path):
    t = gen_synthetic(SynthConfig(n_wells=2, rows_per_well=30, skew=0.9,
                                  n_features=4, seed=3))
    path = tmp_path / "round.csv"
    write_table(t, path)
    back = load_table(path, t.feature_names + [t.target_name])
    assert back.wells == t.wells
    assert back.n_rows == t.n_rows
    # values survive at the 6-significant-digit precision of the file format
    assert np.allclose(back.features, t.features, rtol=1e-5, atol=1e-8)
    assert np.allclose(back.target, t.target, rtol=1e-5, atol=1e-8)


# ------------------------------------------ write_table against a cell loop

def _reference_format_value(v: float) -> str:
    if math.isnan(v):
        return ""
    return f"{v:.6g}"


def reference_write_table(t, path):
    """The one-cell-at-a-time writer whose file bytes write_table must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["well", "depth", *t.feature_names, t.target_name])
        for i in range(t.n_rows):
            writer.writerow([
                t.well_ids[i],
                _reference_format_value(t.depth[i]),
                *(_reference_format_value(v) for v in t.features[i]),
                _reference_format_value(t.target[i]),
            ])


def _written_table(well_ids, values):
    """A table of the given per-row well ids and [depth, f1, f2, sw] rows."""
    values = np.asarray(values, dtype=float).reshape(len(well_ids), 4)
    return WellTable(well_ids=np.array(well_ids, dtype=str),
                     depth=values[:, 0], features=values[:, 1:3], target=values[:, 3],
                     feature_names=["f1", "f2"], target_name="sw")


def assert_same_bytes(t, tmp_path):
    write_table(t, tmp_path / "got.csv")
    reference_write_table(t, tmp_path / "want.csv")
    got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
    assert got == want
    return got


_ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300, 5e-324, 123456.5, 1234567.0, 0.1]
_ODD_WELLS = ["a,b", 'say "hi"', "line\nbreak", "cr\rlf", " lead", "trail ", "Ölfeld ü", "", "plain"]


def test_open_new_truncates_where_the_directory_refuses_the_unlink(tmp_path, monkeypatch):
    """A file whose directory refuses the unlink is written in place, as a
    plain open writes it: a hard link to it sees the new bytes."""
    path, link = tmp_path / "out.txt", tmp_path / "link.txt"
    path.write_text("old and longer\n", encoding="utf-8")
    os.link(path, link)

    def refuse(p):
        raise PermissionError(13, "Permission denied", str(p))

    monkeypatch.setattr(dataio.os, "unlink", refuse)
    with dataio.open_new(path) as fh:
        fh.write("new\n")
    assert link.read_text(encoding="utf-8") == "new\n"


@pytest.mark.parametrize("column", range(4))
@pytest.mark.parametrize("chunk", [1, 2, 256])
def test_writer_matches_reference_on_odd_values(tmp_path, monkeypatch, chunk, column):
    """Each odd value, NaN included, in each column, across chunk boundaries."""
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
    n = len(_ODD_VALUES)
    values = np.tile([1000.0, 1.5, -2.25, 0.5], (n, 1))
    values[:, column] = _ODD_VALUES
    text = assert_same_bytes(_written_table(["A"] * n, values), tmp_path)
    assert text.split(b"\r\n")[1].split(b",")[1 + column] == b""   # the NaN row


@pytest.mark.parametrize("chunk", [1, 2, 256])
def test_writer_matches_reference_on_odd_well_ids(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
    ids = [w for w in _ODD_WELLS for _ in range(3)]
    values = [[100.0 + i, i / 7, math.nan if i % 5 == 0 else -i, 0.5] for i in range(len(ids))]
    assert_same_bytes(_written_table(ids, values), tmp_path)


@pytest.mark.parametrize("chunk", [1, 2, 256])
@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 700])
def test_writer_matches_reference_on_chunk_edges(tmp_path, monkeypatch, chunk, n_rows):
    """No rows, a part-filled last chunk and exactly filled chunks."""
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
    rng = np.random.default_rng(n_rows)
    values = rng.normal(scale=10.0 ** rng.integers(-8, 9, size=(n_rows, 4)))
    values[rng.random((n_rows, 4)) < 0.01] = math.nan
    ids = [_ODD_WELLS[k] for k in rng.integers(len(_ODD_WELLS), size=n_rows)]
    assert_same_bytes(_written_table(ids, values), tmp_path)


def test_writer_matches_reference_on_synthetic_table(tmp_path):
    t = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=300, skew=0.95, n_features=6, seed=17))
    assert t.n_rows % dataio._CHUNK_ROWS != 0
    assert assert_same_bytes(t, tmp_path).startswith(b"well,depth,f1,f2,f3,f4,f5,f6,sw\r\nA,1000,")


def test_quoted_well_ids_round_trip(tmp_path):
    """Every id comes back from load_table, stripped as the loader strips ids."""
    ids = [w for w in _ODD_WELLS for _ in range(2)]
    values = [[100.0 + i, 1.0, 2.0, 0.5] for i in range(len(ids))]
    write_table(_written_table(ids, values), tmp_path / "ids.csv")
    back = load_table(tmp_path / "ids.csv", ["f1", "f2", "sw"])
    assert back.wells == [w.strip() for w in _ODD_WELLS]
    assert back.well_ids.tolist() == [w.strip() for w in ids]
    assert back.depth.tolist() == [100.0 + i for i in range(len(ids))]


# ------------------------------------------- load_table against a row loop

def _reference_parse_cell(text, line, column):
    text = text.strip().replace("−", "-")
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise NonNumericCell(line, column, text) from None
    if value == dataio.SENTINEL or math.isnan(value):
        return math.nan
    return value


def reference_load_table(path, schema):
    """The one-row-at-a-time loader that load_table must match bit for bit."""
    if len(schema) < 2:
        raise MalformedFile("schema needs at least one feature column and a target column")
    feature_names = list(schema[:-1])
    target_name = schema[-1]

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedFile(f"{path}: empty file")
        header = [h.strip() for h in header]
        for name in ("well", "depth", *schema):
            if name not in header:
                raise MalformedFile(f"{path}: missing column {name!r}")
        col = {name: header.index(name) for name in header}

        well_col, depth_col, feat_rows, target_col = [], [], [], []
        start = reader.line_num + 1
        for row in reader:
            line_no, start = start, reader.line_num + 1
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) < len(header):
                raise MalformedFile(f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}")
            well_col.append(row[col["well"]].strip())
            depth = _reference_parse_cell(row[col["depth"]], line_no, "depth")
            if math.isnan(depth):
                raise NonNumericCell(line_no, "depth", row[col["depth"]])
            depth_col.append(depth)
            feat_rows.append([_reference_parse_cell(row[col[f]], line_no, f) for f in feature_names])
            tv = _reference_parse_cell(row[col[target_name]], line_no, target_name)
            if not math.isnan(tv) and not 0.0 <= tv <= 1.0:
                raise MalformedFile(f"{path}: line {line_no}: target {tv} outside [0, 1]")
            target_col.append(tv)
    if not well_col:
        raise EmptyInput(f"{path}: no data rows")

    wells = list(dict.fromkeys(well_col))
    order: list = []
    for w in wells:
        idx = [i for i, wid in enumerate(well_col) if wid == w]
        idx.sort(key=lambda i: depth_col[i])
        for a, b in zip(idx, idx[1:]):
            if depth_col[a] >= depth_col[b]:
                raise MalformedFile(f"{path}: well {w!r} repeats depth {depth_col[b]}")
        order.extend(idx)

    return WellTable(
        well_ids=np.array([well_col[i] for i in order]),
        depth=np.array([depth_col[i] for i in order], dtype=float),
        features=np.array([feat_rows[i] for i in order], dtype=float).reshape(len(order), len(feature_names)),
        target=np.array([target_col[i] for i in order], dtype=float),
        feature_names=feature_names,
        target_name=target_name,
    )


def _outcome(load, path, schema):
    try:
        return load(path, schema)
    except WelldescError as exc:
        return type(exc), str(exc)


def load_by_csv_path(path, schema):
    """load_table with the C reader refusing every file, so the csv path reads it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_read_fast", lambda *args: None)
        return load_table(path, schema)


def assert_same_outcome(path, schema=SCHEMA):
    """load_table gives the reference's table bit for bit, or its exact error.

    Both loader paths are checked: load_table as it reads the file, and with
    the C reader forced to refuse it. Returns "table" or the error's type name.
    """
    want = _outcome(reference_load_table, path, schema)
    for load in (load_table, load_by_csv_path):
        got = _outcome(load, path, schema)
        if isinstance(want, tuple):
            assert got == want, load.__name__
            continue
        assert isinstance(got, WellTable), (load.__name__, got)
        assert got.wells == want.wells, load.__name__
        assert (got.feature_names, got.target_name) == (want.feature_names, want.target_name)
        for name in _ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (load.__name__, name)
            # stricter than array_equal(equal_nan=True): NaN bits and signed zeros too
            assert a.tobytes() == b.tobytes(), (load.__name__, name)
    return want[0].__name__ if isinstance(want, tuple) else "table"


def _synthetic_lines(tmp_path):
    t = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=1500, skew=0.95,
                                  n_features=6, seed=11))
    write_table(t, tmp_path / "synthetic.csv")
    header, *rows = (tmp_path / "synthetic.csv").read_text(encoding="utf-8").splitlines()
    return header, rows, t.feature_names + [t.target_name]


def test_synthetic_table_matches_reference(tmp_path):
    *_, schema = _synthetic_lines(tmp_path)
    assert assert_same_outcome(tmp_path / "synthetic.csv", schema) == "table"


@pytest.mark.parametrize("arrange", ["interleaved", "shuffled"])
def test_mixed_well_order_matches_reference(tmp_path, arrange):
    header, rows, schema = _synthetic_lines(tmp_path)
    if arrange == "interleaved":
        rows = [rows[w * 1500 + i] for i in range(1500) for w in range(8)]
    else:
        rows = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
    path = write_csv(tmp_path / "mixed.csv", rows, header=header)
    assert assert_same_outcome(path, schema) == "table"


PARITY_CASES = {
    "blank-and-comma-only-lines": ["W1,100,10,0.2,2.3,80,0.5", "", ",,,,,,", "  ,  ,", "W1,101,11,0.3,2.4,82,0.6"],
    "extra-trailing-cells": ["W1,100,10,0.2,2.3,80,0.5,extra", "W1,101,11,0.3,2.4,82,0.6,,x,y"],
    "quoted-cells": ['"W1","100","10",0.2,"2.3",80,"0.5"', '"W 2",101,"1e1",0.3,2.4,82,0.6'],
    "spaced-well-ids": [" W1,101,10,0.2,2.3,80,0.5", "W1 ,100,11,0.3,2.4,82,0.6", "W2,100,1,2,3,4,0"],
    "unicode-minus": ["W1,100,−5.5,0.2,2.3,80,0.5", "W1,−101,11,−0.3,2.4,82,−0"],
    "sentinel": ["W1,100,-999.25,0.2,2.3,80,-999.25", "W1,101,−999.25,0.3,2.4,-999.250,0.6"],
    "nan-inf-text": ["W1,100,nan,NaN,inf,-inf,nan", "W1,inf,-Infinity,+inf,-nan,1e400,1", "W1,-inf,1,2,3,4,0"],
    "spaces-and-signs": ["W1, 100 ,\t10 ,+0.2,-0,  ,0.5", "W1,1_01,.5,5.,1E2,-0.0,1."],
    "header-only": [],
    "header-and-blank-lines": ["", ",,,,,,"],
    "short-row": ["W1,100,10,0.2,2.3,80,0.5", "W1,101,11,0.3"],
    "bad-depth": ["W1,100,10,0.2,2.3,80,0.5", "W1,1o1,11,0.3,2.4,82,0.6"],
    "missing-depth": ["W1,-999.25,10,0.2,2.3,80,0.5"],
    "bad-feature": ["W1,100,10,0.2,2.3,80,0.5", "W1,101,11,0.3,2.4,\"8,2\",0.6"],
    "bad-target": ["W1,100,10,0.2,2.3,80,0.5", "W1,101,11,0.3,2.4,82,high"],
    "target-out-of-range": ["W1,100,10,0.2,2.3,80,1e400"],
    "repeated-depth": ["W2,5,1,2,3,4,0", "W1,100,10,0.2,2.3,80,0.5", "W2,5,1,2,3,4,0", " W1,100.0,1,2,3,4,0"],
    "repeated-signed-zero-depth": ["W1,-0,1,2,3,4,0", "W1,0,1,2,3,4,0"],
    "faults-on-two-lines": ["W1,100,10,0.2,2.3,80,7", "W1,101,x,0.3,2.4,82,0.6"],
    "faults-in-one-row": ["W1,,x,0.3,2.4,82,7"],
    "quoted-newline-then-bad-cell": ['"W\n1",100,10,0.2,2.3,80,0.5', "W1,101,11,0.3,2.4,82,0.6", "W1,102,x,0.4,2.5,84,0.7"],
    "quoted-newline-then-short-row": ["W1,100,10,0.2,2.3,80,0.5", '"W\n2",100,10,0.2,2.3,80,0.5', "W1,101,11"],
    "quoted-newline-in-bad-row": ["W1,100,10,0.2,2.3,80,0.5", '"W\n1",101,11,0.3,2.4,82,1.5'],
}


@pytest.mark.parametrize("chunk", [1, 2, 1024])
@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_parity_case_matches_reference(tmp_path, monkeypatch, case, chunk):
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
    assert_same_outcome(write_csv(tmp_path / "case.csv", PARITY_CASES[case]))


@pytest.mark.parametrize("chunk", [1, 1024])
@pytest.mark.parametrize("case", ["quoted-cells", "bad-feature", "quoted-newline-then-short-row", "header-only"])
def test_byte_order_mark_matches_reference(tmp_path, monkeypatch, case, chunk):
    """A UTF-8 byte-order mark, as spreadsheets export it, is not part of the first column's name."""
    monkeypatch.setattr(dataio, "_CHUNK_ROWS", chunk)
    header = "well,depth,GR,NPHI,RHOB,DT,SW"
    plain = write_csv(tmp_path / "plain.csv", PARITY_CASES[case], header=header)
    marked = write_csv(tmp_path / "marked.csv", PARITY_CASES[case], header="\ufeff" + header)
    assert assert_same_outcome(marked) == assert_same_outcome(plain)
    got, want = (_outcome(load_table, p, SCHEMA) for p in (marked, plain))
    if isinstance(want, tuple):
        assert got == (want[0], want[1].replace("plain.csv", "marked.csv"))


@pytest.mark.parametrize("rows", [["1,100,0.5", "2,101,0.25"], ["1,100,0.5", "x,101,0.25"]], ids=["numeric", "text"])
def test_well_column_in_the_schema_matches_reference(tmp_path, rows):
    """A schema may name the well column as a feature; the C reader leaves that file to the csv path."""
    assert_same_outcome(write_csv(tmp_path / "w.csv", rows, header="well,depth,SW"), ["well", "SW"])


def test_undecodable_file_is_malformed(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("well,depth,GR,NPHI,RHOB,DT,SW\nPuits \xe9,100,10,0.2,2.3,80,0.5\n".encode("latin-1"))
    with pytest.raises(MalformedFile, match="latin1.csv: not UTF-8 text"):
        load_table(path, SCHEMA)


def test_fault_after_quoted_newline_reports_file_line(tmp_path):
    # line 1 header, lines 2-3 one record, line 4 clean, line 5 the bad cell
    path = write_csv(tmp_path / "case.csv", PARITY_CASES["quoted-newline-then-bad-cell"])
    with pytest.raises(NonNumericCell) as exc:
        load_table(path, SCHEMA)
    assert (exc.value.line, exc.value.column, exc.value.text) == (5, "GR", "x")


def test_fault_before_an_oversized_cell_is_reported_first(tmp_path):
    """The csv path reads a row at a time, so a bad cell is named before a
    later cell over the csv module's field size limit stops the reader."""
    rows = ["W1,100,10,0.2,2.3,80,0.5", "W1,101,x,0.3,2.4,82,0.6", "W" * 131_073 + ",102,1,2,3,4,0.5"]
    with pytest.raises(NonNumericCell) as exc:
        load_table(write_csv(tmp_path / "case.csv", rows), SCHEMA)
    assert (exc.value.line, exc.value.column, exc.value.text) == (3, "GR", "x")


_WELLS = ["A", "B", " W1", "W1", "W1 "]
_CELLS = ["1.5", "-2", "0", "-0", "3e2", " 4.25 ", "-999.25", "−7.5", "", "  ",
          "nan", "-nan", "inf", "-inf", "1_0", '"8.5"', "+.5", "\u20035\u2003"]
_TARGETS = ["0", "1", "0.25", "-0", "", "nan", "-999.25", "1.0", " 0.5", "−0", "1e-3"]
_BAD_CELLS = ["oops", "1.2.3", "--1", '"1,5"', "1e", "−", "0x10", "inf inf", "1 5"]
_BAD_DEPTHS = ["", "  ", "-999.25", "−999.25", "nan", *_BAD_CELLS]
_BAD_TARGETS = ["1.5", "-0.1", "inf", "-inf", "2", "−0.5", "1e400", *_BAD_CELLS]
_HEADERS = ["well,depth,GR,NPHI,RHOB,DT,SW", "depth,GR,well,x,NPHI,RHOB,DT,SW,y",
            "SW,DT,RHOB,NPHI,GR,depth,well"]


def _random_csv(rng):
    """A small well CSV, sometimes clean, with up to four faults on random lines."""
    header = rng.choice(_HEADERS).split(",")
    n = int(rng.integers(0, 25))
    depths = [repr(100 + 0.5 * float(k)) for k in rng.permutation(n)]  # only a planted repeat repeats
    rows = []
    for i in range(n):
        cells = {"well": rng.choice(_WELLS), "depth": depths[i], "SW": rng.choice(_TARGETS)}
        row = [cells.get(h, rng.choice(_CELLS)) for h in header]
        rows.append(row + list(rng.choice(_CELLS, size=rng.integers(0, 2))))
    for _ in range(int(rng.integers(0, 5)) if n else 0):
        row = rows[rng.integers(n)]
        fault = rng.integers(6)
        if fault == 0:
            del row[rng.integers(len(header)):]
            continue
        column, value = [
            ("depth", rng.choice(_BAD_DEPTHS)),
            (rng.choice(SCHEMA[:-1]), rng.choice(_BAD_CELLS)),
            ("SW", rng.choice(_BAD_TARGETS)),
            ("depth", rng.choice(depths)),
            ("well", rng.choice(_WELLS)),
        ][fault - 1]
        if header.index(column) < len(row):
            row[header.index(column)] = value
    lines = [",".join(row) for row in rows]
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", ",,,", "  "]))
    return ",".join(header) + "\n" + "\n".join(lines) + "\n"


def test_random_faulty_files_match_reference(tmp_path):
    rng = np.random.default_rng(2016)
    seen = {}
    for k in range(400):
        path = tmp_path / f"r{k}.csv"
        path.write_text(_random_csv(rng), encoding="utf-8")
        kind = assert_same_outcome(path)
        seen[kind] = seen.get(kind, 0) + 1
    # the corpus exercises clean tables and both error types
    assert min(seen.get(k, 0) for k in ("table", "NonNumericCell", "MalformedFile")) >= 40, seen


@pytest.mark.parametrize("n_wells, rows_per_well, skew", [(4, 500, 0.97), (8, 1000, 0.95), (8, 4000, 0.95)],
                         ids=["walkthrough", "scale", "apply"])
def test_written_tables_skip_the_csv_path(tmp_path, monkeypatch, n_wells, rows_per_well, skew):
    """The C reader takes every table write_table writes without a NaN.

    A silent fallback to the csv path would keep every other test green and
    lose the speed, so here the csv path must not run at all.
    """
    t = gen_synthetic(SynthConfig(n_wells=n_wells, rows_per_well=rows_per_well, skew=skew,
                                  n_features=6, seed=1))
    write_table(t, tmp_path / "t.csv")

    def csv_path(*args):
        raise AssertionError("load_table fell back to the csv path")

    monkeypatch.setattr(dataio, "_read_csv", csv_path)
    back = load_table(tmp_path / "t.csv", t.feature_names + [t.target_name])
    assert back.n_rows == t.n_rows and back.wells == t.wells


def test_ordered_table_loads_without_sorting(tmp_path, monkeypatch):
    """Rows grouped by well with rising depths, as write_table writes them, need no sort."""
    *_, schema = _synthetic_lines(tmp_path)

    def lexsort(*args):
        raise AssertionError("an ordered table was sorted")

    monkeypatch.setattr(np, "lexsort", lexsort)
    assert assert_same_outcome(tmp_path / "synthetic.csv", schema) == "table"


def _taking_read_fast(monkeypatch):
    """Patch _read_fast to record, per load, whether the C reader took the file."""
    taken = []

    def read_fast(*args, _read_fast=dataio._read_fast):
        parsed = _read_fast(*args)
        taken.append(parsed is not None)
        return parsed

    monkeypatch.setattr(dataio, "_read_fast", read_fast)
    return taken


@pytest.mark.parametrize("schema", [["DT", "NPHI", "GR", "SW"], ["GR", "GR", "SW"], ["depth", "RHOB", "SW"],
                                    ["SW", "DT", "SW"]],
                         ids=["out-of-header-order", "repeated-feature", "depth-as-feature",
                              "target-as-feature"])
def test_schema_order_and_repeats_match_reference(tmp_path, monkeypatch, schema):
    """The C reader's float block follows the schema, in its order and with its repeats,
    for rows in load order and for rows that need sorting."""
    rows = ["W1,99,1e3,0.4,2.5,84,1", "W1,100,10,0.2,2.3,80,0.5", "W1,101,11,0.3,2.4,82,0.6",
            "W2,5,1,-0,3,-999.25,0"]
    taken = _taking_read_fast(monkeypatch)
    for k, lines in enumerate((rows, rows[::-1])):
        assert assert_same_outcome(write_csv(tmp_path / f"s{k}.csv", lines), schema) == "table"
    assert taken == [True, True]


# cells numpy's C reader takes as they stand, and the faults planted among them
_C_CELLS = ["1.5", "-2", "0", "-0", "3e2", " 4.25 ", "\t7\t", "-999.25", "nan", "-nan", "inf", "-inf",
            "1e400", "+.5", '"8.5"', '"1"0', "\u20035\u2003"]
_C_WELLS = ["A", "B", " W1", "W1 ", '"W,1"', '"W\n1"', '"W""1"', '"W"1', "Puits \u00e9"]
_C_TARGETS = ["0", "1", "0.25", "-0", "nan", "-999.25", '"0.5"']
_C_FAULTS = [("depth", "nan"), ("depth", "-999.25"), ("depth", "100.0"), ("GR", ""), ("GR", "−1"),
             ("GR", "1_0"), ("SW", "1.5"), ("SW", "-inf"), ("SW", " "), ("well", "W1,extra")]


def _random_c_csv(rng):
    """A small well CSV in any line ending, clean or with one fault, most of it C-readable."""
    header = rng.choice(_HEADERS).split(",")
    n = int(rng.integers(1, 25))
    depths = [repr(100 + 0.5 * float(k)) for k in rng.permutation(n)]
    rows = []
    for i in range(n):
        cells = {"well": rng.choice(_C_WELLS), "depth": depths[i], "SW": rng.choice(_C_TARGETS)}
        rows.append([cells.get(h, rng.choice(_C_CELLS)) for h in header])
    if rng.random() < 0.3:
        column, value = _C_FAULTS[rng.integers(len(_C_FAULTS))]
        rows[rng.integers(n)][header.index(column)] = value
    if rng.random() < 0.1:
        rows[rng.integers(n)].pop()
    end = rng.choice(["\n", "\r\n", "\r"])
    return ",".join(header) + end + end.join(map(",".join, rows)) + end


def test_random_c_readable_files_match_reference(tmp_path, monkeypatch):
    """The C reader's tables, and its refusals, agree with the row loop on quoting, spacing and line ends."""
    taken = _taking_read_fast(monkeypatch)
    rng = np.random.default_rng(15)
    seen = {}
    for k in range(300):
        path = tmp_path / f"c{k}.csv"
        path.write_bytes(_random_c_csv(rng).encode("utf-8"))
        kind = assert_same_outcome(path)
        seen[kind] = seen.get(kind, 0) + 1
    assert sum(taken) >= 150 and seen.get("table", 0) >= 150, (sum(taken), seen)
    assert min(seen.get(k, 0) for k in ("NonNumericCell", "MalformedFile")) >= 10, seen


def test_load_peak_memory_stays_bounded(tmp_path):
    """32,000 rows of depth, six features and a target make a 2.2 MB table.

    Loading it peaks at about 5 MB, through the C reader and, with one blank
    cell, through the csv path, which keeps each parsed row in one array of
    floats; the reference row loop, which keeps every cell as a Python float
    until the end, peaks at about 15.5 MB.
    """
    t = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=4000, skew=0.95,
                                  n_features=6, seed=1))
    write_table(t, tmp_path / "clean.csv")
    t.features[t.n_rows // 2, 0] = math.nan
    write_table(t, tmp_path / "blank.csv")
    for name, blanks in (("clean.csv", 0), ("blank.csv", 1)):
        tracemalloc.start()
        try:
            back = load_table(tmp_path / name, t.feature_names + [t.target_name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isnan(back.features).sum() == blanks
        assert peak < 8e6, f"{name}: peak {peak / 1e6:.1f} MB"


def test_ingest_chain_peak_memory_stays_bounded(tmp_path):
    """load_table -> drop_invalid -> resample_uniform -> binarize_target of the
    32,000-row table, after one warm-up pass, peaks at about 5.3 MB: the
    loaded rows are taken in file order without a sort, the complete table
    is shared rather than copied, and the resampled table is filled in
    place. Sorting every load and stacking per-well blocks peaked at 6.6 MB.
    """
    t = gen_synthetic(SynthConfig(n_wells=8, rows_per_well=4000, skew=0.95,
                                  n_features=6, seed=1))
    write_table(t, tmp_path / "t.csv")
    schema = t.feature_names + [t.target_name]
    del t

    def chain():
        return binarize_target(resample_uniform(drop_invalid(load_table(tmp_path / "t.csv", schema))))

    chain()
    tracemalloc.start()
    try:
        data = chain()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.X.shape == (32_000, 6)
    assert peak < 6.6e6, f"peak {peak / 1e6:.2f} MB"


# -------------------------------------------------------------- drop_invalid

def test_drop_invalid_removes_incomplete_rows(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,101,,0.3,2.4,82,0.6",
        "W1,102,12,0.4,2.5,84,0.7",
        "W1,103,-999.25,0.4,2.5,84,0.7",
        "W1,104,14,0.4,2.5,84,0.7",
    ])
    clean = drop_invalid(t)
    assert clean.n_rows == 3
    assert np.array_equal(clean.depth, [100.0, 102.0, 104.0])


def test_drop_invalid_keeps_complete_table(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,10,0.2,2.3,80,0.5",
        "W1,101,11,0.3,2.4,82,0.6",
    ])
    clean = drop_invalid(t)
    assert clean.n_rows == 2
    assert np.array_equal(clean.features, t.features)
    assert np.array_equal(clean.target, t.target)


def test_drop_invalid_all_rows_missing(tmp_path):
    t = small_table(tmp_path, [
        "W1,100,,0.2,2.3,80,0.5",
        "W1,101,-999.25,0.3,2.4,82,0.6",
    ])
    with pytest.raises(EmptyResult):
        drop_invalid(t)


def test_complete_table_is_shared_and_left_unchanged(tmp_path, monkeypatch):
    """drop_invalid hands a complete table's arrays on as they are, so nothing
    that prepare or run does after it may write into them."""
    write_table(gen_synthetic(SynthConfig(seed=3)), tmp_path / "raw.csv")
    loaded = []

    def load(path, _load_table=welldesc.cli.load_table):
        t = _load_table(path)
        loaded.append((t, {name: getattr(t, name).tobytes() for name in _ARRAYS}))
        return t

    def drop(t, _drop_invalid=welldesc.cli.drop_invalid):
        clean = _drop_invalid(t)
        assert all(getattr(clean, name) is getattr(t, name) for name in _ARRAYS)
        return clean

    monkeypatch.setattr(welldesc.cli, "load_table", load)
    monkeypatch.setattr(welldesc.cli, "drop_invalid", drop)
    for argv in (["prepare", "--input", tmp_path / "raw.csv"], ["run", "--input", tmp_path / "prepared.csv"]):
        assert welldesc.cli.main([*map(str, argv), "--out", str(tmp_path)]) == 0
    assert len(loaded) == 2
    for t, before in loaded:
        assert {name: getattr(t, name).tobytes() for name in _ARRAYS} == before


# ---------------------------------------------------------- resample_uniform

def _one_well_table(depths, col, target):
    n = len(depths)
    return WellTable(
        well_ids=np.array(["W1"] * n),
        depth=np.asarray(depths, dtype=float),
        features=np.asarray(col, dtype=float).reshape(n, 1),
        target=np.asarray(target, dtype=float),
        feature_names=["GR"],
        target_name="SW",
    )


def test_resample_linear_interpolation():
    t = _one_well_table([0.0, 1.0, 2.0], [0.0, 10.0, 20.0], [0.0, 0.5, 1.0])
    r = resample_uniform(t, 0.5)
    assert np.allclose(r.depth, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    assert np.allclose(r.features[:, 0], [0.0, 5.0, 10.0, 15.0, 20.0], atol=1e-12)


def test_resample_identity_on_uniform_grid():
    t = _one_well_table([5.0, 5.5, 6.0, 6.5], [1.0, 2.0, 4.0, 8.0],
                        [0.1, 0.2, 0.3, 0.4])
    r = resample_uniform(t, 0.5)
    assert np.array_equal(r.depth, t.depth)
    assert np.array_equal(r.features, t.features)
    assert np.array_equal(r.target, t.target)


def test_wells_are_read_off_rows_not_grouped_by_well():
    """A table's wells are its distinct well ids in first-appearance order, so
    rows not grouped by well keep their wells through resampling, labelling
    and every split."""
    t = WellTable(well_ids=np.array(["B", "A", "B", "A"]), depth=np.array([1.0, 1.0, 2.0, 2.0]),
                  features=np.arange(4.0).reshape(4, 1), target=np.array([0.1, 0.2, 0.9, 0.8]),
                  feature_names=["f1"], target_name="sw")
    assert t.wells == ["B", "A"]
    r = resample_uniform(t)
    assert r.well_ids.tolist() == ["B", "B", "A", "A"]
    assert r.features[:, 0].tolist() == [0.0, 2.0, 1.0, 3.0]
    d = binarize_target(r, 0.5)
    assert d.wells == ["B", "A"]
    plans = [split_leave_one_well_out(d, w) for w in d.wells]
    assert [p.train_rows.tolist() for p in plans] == [[2], [0]]
    assert [p.fit_rows.tolist() for p in plans] == [[2, 3], [0, 1]]


def _interp_each_well(t):
    """resample_uniform's table by np.interp on every column of every well, stacked."""
    parts = []
    for w in t.wells:
        idx = t.rows_of(w)
        depths = t.depth[idx]
        step = float(np.median(np.diff(depths)))
        grid = depths[0] + step * np.arange(int(math.floor((depths[-1] - depths[0]) / step + 1e-9)) + 1)
        columns = [t.features[idx, j] for j in range(t.features.shape[1])] + [t.target[idx]]
        parts.append((np.full(grid.size, w), grid, *(np.interp(grid, depths, c) for c in columns)))
    return (np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]),
            np.vstack([np.column_stack(p[2:-1]) for p in parts]), np.concatenate([p[-1] for p in parts]))


def _resample_counting_interp(t):
    """resample_uniform(t) and the number of np.interp calls it made."""
    calls = []

    def interp(*args, _interp=np.interp):
        calls.append(1)
        return _interp(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "interp", interp)
        return resample_uniform(t), len(calls)


def _two_well_table(depths):
    n = len(depths)
    rng = np.random.default_rng(7)
    features = rng.normal(size=(2 * n, 3))
    features[1, 0] = features[n + 2, 2] = -0.0
    return WellTable(well_ids=np.array(["A"] * n + ["B"] * n),
                     depth=np.concatenate([depths, 40.0 + 0.25 * np.arange(n)]),
                     features=features, target=rng.uniform(size=2 * n),
                     feature_names=["f1", "f2", "f3"], target_name="sw")


def test_resample_on_grid_copies_what_interp_returns():
    """Wells whose depths are their grid take their values without np.interp,
    and the bytes are np.interp's, a -0.0 cell included."""
    t = _two_well_table(1000.0 + 0.5 * np.arange(9))
    want = _interp_each_well(t)
    r, calls = _resample_counting_interp(t)
    assert calls == 0
    for name, w in zip(_ARRAYS, want):
        assert getattr(r, name).tobytes() == w.tobytes(), name
    assert np.signbit(r.features[[1, 11], [0, 2]]).all()


def test_resample_one_ulp_off_grid_interpolates():
    """One depth a unit in the last place off its grid point sends its well,
    and only it, through np.interp."""
    depths = 1000.0 + 0.5 * np.arange(9)
    depths[4] = np.nextafter(depths[4], np.inf)
    t = _two_well_table(depths)
    want = _interp_each_well(t)
    r, calls = _resample_counting_interp(t)
    assert calls == t.features.shape[1] + 1
    for name, w in zip(_ARRAYS, want):
        assert getattr(r, name).tobytes() == w.tobytes(), name
    assert r.depth[4] != t.depth[4]


def test_resample_auto_uses_median_step():
    # steps 1, 1, 4 -> median 1; the grid must not chase the gap
    t = _one_well_table([0.0, 1.0, 2.0, 6.0], [0.0, 1.0, 2.0, 6.0],
                        [0.0, 0.1, 0.2, 0.6])
    r = resample_uniform(t)
    assert np.allclose(r.depth, np.arange(7.0), atol=1e-12)
    assert np.allclose(r.features[:, 0], np.arange(7.0), atol=1e-12)


def test_resample_single_row_well():
    t = _one_well_table([0.0], [1.0], [0.5])
    with pytest.raises(SingleRowWell):
        resample_uniform(t, 1.0)


def test_resample_rejects_bad_spacing():
    t = _one_well_table([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidConfig, match="spacing must be positive and finite"):
            resample_uniform(t, bad)
    # a step too fine for MAX_GRID_ROWS fails before the grid is allocated
    tracemalloc.start()
    try:
        for tiny, rows in ((1e-300, r"1e\+300"), (1e-9, r"1e\+09")):
            with pytest.raises(InvalidConfig, match=rf"well 'W1': depth spacing {tiny:g} "
                                                    rf"makes {rows} grid rows, over the cap"):
                resample_uniform(t, tiny)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resample_rejects_a_tiny_auto_step():
    # the median step is 1e-9, so the grid over [0, 1000] would have 1e12 rows
    t = _one_well_table([0.0, 1e-9, 2e-9, 1000.0], [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(InvalidConfig, match=r"well 'W1': depth spacing 1e-09 makes 1e\+12"):
        resample_uniform(t)


def test_resample_rejects_repeated_depths_without_a_warning():
    # steps 0, 0, 1 -> median 0: no grid can be laid, and no divide may warn
    t = _one_well_table([1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfig, match="well 'W1': median depth step 0 is not "
                                                "positive; its depths repeat"):
            resample_uniform(t)


def _median_draw(rng, kind, n):
    """n values with magnitudes from 1e-300 to 1e300 and either sign: all
    distinct-ish, drawn from a few repeated ones, or with +0.0 and -0.0 mixed in."""
    v = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
    if kind == "repeated":
        v = rng.choice(v[:rng.integers(1, min(n, 4) + 1)], size=n)
    elif kind != "distinct":
        share = {"some-zeros": 0.2, "mostly-zeros": 0.8}[kind]
        zeros = rng.uniform(size=n) < share
        v[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
    return v


@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
@pytest.mark.parametrize("kind", ["distinct", "repeated", "some-zeros", "mostly-zeros"])
def test_median_is_np_median(kind, parity):
    """resample_uniform's step, bit for bit and sign bit for sign bit."""
    rng = np.random.default_rng([53, parity, len(kind)])
    zero_medians = 0
    for half in [0, 1, 2, *rng.integers(3, 300, size=100)]:
        n = 2 * half + parity
        if n == 0:
            continue
        v = _median_draw(rng, kind, n)
        want, got = np.float64(np.median(v)), np.float64(dataio._median(v))
        assert got.tobytes() == want.tobytes() and np.signbit(got) == np.signbit(want), v
        zero_medians += want == 0
    assert zero_medians > 10 or "zeros" not in kind


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_resample_rejects_non_finite_depth(bad):
    t = _one_well_table([0.0, 1.0, bad], [1.0, 2.0, 3.0], [0.2, 0.8, 0.9])
    with pytest.raises(NonFiniteInput, match="well 'W1' has a non-finite depth"):
        resample_uniform(t)


# ------------------------------------------------------------ binarize_target

def test_binarize_threshold_rule():
    t = _one_well_table([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0.7, 0.69, 0.0])
    d = binarize_target(t, 0.7)
    assert d.y[0] == HIGH     # exactly at the threshold
    assert d.y[1] == LOW
    assert d.y[2] == LOW


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_binarize_rejects_non_finite_cell(bad):
    t = _one_well_table([0.0, 1.0, 2.0], [1.0, bad, 3.0], [0.2, 0.8, 0.9])
    with pytest.raises(NonFiniteInput):
        binarize_target(t, 0.7)


def test_binarize_threshold_must_be_interior():
    t = _one_well_table([0.0, 1.0], [1.0, 2.0], [0.3, 0.8])
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidConfig):
            binarize_target(t, bad)


# ------------------------------------------------- split_leave_one_well_out

def _four_well_dataset():
    """Four wells, each 10 HIGH rows and 2 LOW rows."""
    ids, targets = [], []
    for w in "ABCD":
        ids += [w] * 12
        targets += [0.9] * 10 + [0.1] * 2
    n = len(ids)
    t = WellTable(
        well_ids=np.array(ids),
        depth=np.tile(np.arange(12.0), 4),
        features=np.arange(2.0 * n).reshape(n, 2),
        target=np.array(targets),
        feature_names=["a", "b"],
        target_name="SW",
    )
    return binarize_target(t, 0.7)


def test_split_counts_and_membership():
    d = _four_well_dataset()
    plan = split_leave_one_well_out(d, "C")
    assert plan.test_well == "C"
    assert plan.train_rows.size == 6           # 2 LOW from each of A, B, D
    assert plan.test_rows.size == 42           # 30 HIGH from A,B,D + all 12 of C
    assert np.all(d.y[plan.train_rows] == LOW)
    assert np.all(d.well_ids[plan.train_rows] != "C")
    assert np.intersect1d(plan.train_rows, plan.test_rows).size == 0
    in_c = d.well_ids[plan.test_rows] == "C"
    assert int(np.count_nonzero(in_c)) == 12
    assert np.all(d.y[plan.test_rows[~in_c]] == HIGH)
    assert np.array_equal(plan.fit_rows, np.flatnonzero(d.well_ids != "C"))
    assert np.isin(plan.train_rows, plan.fit_rows).all()


def test_split_unknown_well():
    d = _four_well_dataset()
    with pytest.raises(UnknownWell):
        split_leave_one_well_out(d, "Z")


def test_split_without_external_minority():
    d = _four_well_dataset()
    # push every LOW label into well A, then hold A out
    d.y[(d.well_ids != "A") & (d.y == LOW)] = HIGH
    with pytest.raises(NoMinorityTrainingData):
        split_leave_one_well_out(d, "A")


# ---------------------------------------------------------------- normalize

def test_normalize_population_convention():
    X = np.array([[1.0], [3.0]])
    stats = normalize_fit(X)
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0
    assert np.array_equal(normalize_apply(stats, X)[:, 0], [-1.0, 1.0])


def test_normalize_constant_column_gets_unit_std():
    X = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
    stats = normalize_fit(X)
    assert stats.std[0] == 1.0
    assert np.all(normalize_apply(stats, X)[:, 0] == 0.0)


def test_normalize_std_whose_square_is_subnormal_gets_unit_std():
    """A feature whose values differ by less than about 1e-154 has a subnormal
    variance; like a constant one it gets std 1, which model files accept."""
    X = np.array([[0.0, 1.0], [1e-160, 2.0], [2e-160, 3.0]])
    stats = normalize_fit(X)
    assert stats.std[0] == 1.0 and stats.std[1] == X[:, 1].std()
    assert normalize_fit(np.array([[0.0], [4e-154]])).std[0] == 2e-154


def test_normalize_identity_stats_change_nothing():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(5, 3))
    assert np.array_equal(normalize_apply(NormStats.identity(3), X), X)


def test_normalize_apply_allocates_only_its_result():
    """Z-scoring 32,000 x 4 rows holds the 1.02 MB result and no second (n, d) array."""
    X = np.random.default_rng(3).normal(size=(32_000, 4))
    stats = normalize_fit(X, np.arange(32_000))
    want = (X - stats.mean) / stats.std
    tracemalloc.start()
    try:
        got = normalize_apply(stats, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 1.5 * X.nbytes, f"peak {peak / 1e6:.2f} MB"


def _layouts():
    X = np.random.default_rng(9).normal(size=(40, 6)) * 1e3
    yield "c-order", X[:, :3].copy()
    yield "f-order", np.asfortranarray(X[:, :3])
    yield "strided", X[::3, 1::2]
    yield "one-row", X[:1, :3]
    yield "zero-rows", X[:0, :3]


@pytest.mark.parametrize("name,X", list(_layouts()), ids=[n for n, _ in _layouts()])
def test_normalize_apply_is_feature_major_and_bit_equal(name, X):
    """Whatever the input layout, the block comes back Fortran-ordered, so
    each feature's values are contiguous, with the bits of (X - mean) / std."""
    stats = NormStats(mean=np.array([0.5, -3.0, 1e3]), std=np.array([3.0, 0.7, 250.0]))
    got = normalize_apply(stats, X)
    assert got.shape == X.shape and got.flags.f_contiguous
    assert got.tobytes() == ((X - stats.mean) / stats.std).tobytes()
    assert not np.shares_memory(got, X)


def test_normalize_apply_rejects_a_mismatched_block():
    stats = NormStats.identity(3)
    for bad in (np.zeros(3), np.zeros((4, 2)), np.zeros((2, 3, 1))):
        want = f"expected a 2-d matrix of 3 features, got shape {bad.shape}"
        with pytest.raises(DimensionMismatch, match=re.escape(want)):
            normalize_apply(stats, bad)


def test_normalize_fit_on_row_subset():
    X = np.array([[0.0], [2.0], [100.0]])
    stats = normalize_fit(X, rows=np.array([0, 1]))
    assert stats.mean[0] == 1.0
    assert stats.std[0] == 1.0


def test_normalize_fit_empty_rows():
    with pytest.raises(EmptyRowSet):
        normalize_fit(np.empty((0, 2)))


@pytest.mark.parametrize("column", [[1.0e308, 1.7e308], [1e200, -1e200], [1.0, math.nan], [1.0, -math.inf]],
                         ids=["mean-overflows", "std-overflows", "nan", "inf"])
def test_normalize_fit_rejects_non_finite_stats(column):
    X = np.column_stack([np.arange(2.0), column])
    with np.errstate(all="raise"):  # and it warns of nothing on the way
        with pytest.raises(NonFiniteInput, match="feature scaling failed: column 1 has mean"):
            normalize_fit(X)


# ---------------------------------------------------------------- histogram

def test_histogram_half_open_bins():
    edges, counts = histogram(np.array([0.0, 0.5, 1.0]), 2)
    assert np.allclose(edges, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.array_equal(counts, [1, 2])   # 0.5 lands in the upper bin


def test_histogram_degenerate_range():
    edges, counts = histogram(np.array([3.3, 3.3, 3.3]), 4)
    assert counts[0] == 3
    assert counts[1:].sum() == 0


def test_histogram_empty_input():
    with pytest.raises(EmptyInput):
        histogram(np.array([]), 3)


@pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.inf], [-1e308, 1e308]],
                         ids=["nan", "inf", "range-overflow"])
def test_histogram_non_finite_value_rejected(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="histogram values must be finite"):
            histogram(np.array(values), 3)


def test_histogram_counts_everything_once():
    rng = np.random.default_rng(22)
    v = rng.uniform(size=500)
    _, counts = histogram(v, 17)
    assert counts.sum() == 500


def test_histogram_skewed_target_mass():
    t = gen_synthetic(SynthConfig(n_wells=2, rows_per_well=500, skew=0.97,
                                  n_features=4, seed=4))
    edges, counts = histogram(t.target, 20)
    # every >= 0.7 row sits in a bin whose right edge clears the threshold
    high_mass = counts[edges[1:] > 0.7].sum()
    assert high_mass / counts.sum() >= 0.96


# ------------------------------------------------------------- gen_synthetic

def test_synthetic_deterministic():
    cfg = SynthConfig(n_wells=3, rows_per_well=50, skew=0.9, n_features=5, seed=9)
    a = gen_synthetic(cfg)
    b = gen_synthetic(cfg)
    assert a.wells == b.wells
    assert np.array_equal(a.depth, b.depth)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.target, b.target)


def test_synthetic_shape_and_names():
    t = gen_synthetic(SynthConfig(n_wells=4, rows_per_well=500, skew=0.97,
                                  n_features=6, seed=1))
    assert t.wells == ["A", "B", "C", "D"]
    assert t.n_rows == 2000
    assert t.feature_names == ["f1", "f2", "f3", "f4", "f5", "f6"]
    assert t.target_name == "sw"
    idx = t.rows_of("B")
    assert np.allclose(t.depth[idx], 1000.0 + 0.5 * np.arange(500), atol=1e-12)


def test_synthetic_skew_count():
    t = gen_synthetic(SynthConfig(n_wells=2, rows_per_well=500, skew=0.97,
                                  n_features=4, seed=6))
    d = binarize_target(t, 0.7)
    n_high = int(np.count_nonzero(d.y == HIGH))
    assert 950 <= n_high <= 990


def test_synthetic_minority_count_exact_per_well():
    t = gen_synthetic(SynthConfig(n_wells=3, rows_per_well=200, skew=0.95,
                                  n_features=4, seed=7))
    d = binarize_target(t, 0.7)
    for w in t.wells:
        rows = np.flatnonzero(d.well_ids == w)
        assert int(np.count_nonzero(d.y[rows] == LOW)) == 10


def test_synthetic_rejects_bad_config():
    for cfg in (SynthConfig(skew=1.5), SynthConfig(skew=0.0),
                SynthConfig(n_wells=0), SynthConfig(rows_per_well=1),
                SynthConfig(n_features=1)):
        with pytest.raises(InvalidConfig):
            gen_synthetic(cfg)


class _Allocating(Exception):
    pass


@pytest.mark.parametrize("wells, rows, features, refused", [
    (10**12, 2, 2, True), (1, 10**12, 2, True), (1, 2, 10**12, True), (1, 10**9, 2, True),
    (1, 1_000_001, 8, True), (1, 1_000_000, 8, False),
], ids=["wells", "rows", "features", "rows-1e9", "cap-plus-10", "cap"])
def test_synthetic_refuses_an_oversized_table_before_allocating(monkeypatch, wells, rows,
                                                                features, refused):
    """A table of more than MAX_GRID_ROWS cells (wells x rows x (features + 2))
    is InvalidConfig, raised before the well names, the first thing built."""
    def names(k):
        raise _Allocating

    monkeypatch.setattr(dataio, "_well_names", names)
    cfg = SynthConfig(n_wells=wells, rows_per_well=rows, n_features=features)
    with pytest.raises(InvalidConfig if refused else _Allocating):
        gen_synthetic(cfg)


def test_synthetic_names_more_than_26_wells_by_number():
    t = gen_synthetic(SynthConfig(n_wells=27, rows_per_well=2, skew=0.5, n_features=2))
    assert t.wells == [f"W{i:03d}" for i in range(1, 28)]
