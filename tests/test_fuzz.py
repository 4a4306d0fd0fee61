"""A fixed-seed corpus of mutated well CSVs run through `prepare` and `features`.

Every run must end in one of the exit codes the CLI documents, never in an
exception. The corpus starts from two small tables, one numpy's C reader
takes and one with a blank cell, so both of load_table's paths read it.
"""

import numpy as np
import pytest

import welldesc.cli
from welldesc import dataio
from welldesc.dataio import SynthConfig, gen_synthetic, write_table

SEED = 19
MUTANTS = 400
EXIT_CODES = {0, 2, 3, 4, 5}  # welldesc.cli's docstring


def _seed_tables(tmp_path) -> list:
    """The bytes of a C-readable table and of the same table with one blank cell."""
    t = gen_synthetic(SynthConfig(n_wells=3, rows_per_well=12, skew=0.8, n_features=4, seed=1))
    write_table(t, tmp_path / "seed.csv")
    clean = (tmp_path / "seed.csv").read_bytes()
    lines = clean.split(b"\r\n")
    cells = lines[5].split(b",")
    cells[3] = b""
    lines[5] = b",".join(cells)
    return [clean, b"\r\n".join(lines)]


def _replace_cell(data: bytes, rng, cell: bytes) -> bytes:
    lines = data.split(b"\n")
    i = int(rng.integers(len(lines)))
    cells = lines[i].split(b",")
    cells[int(rng.integers(len(cells)))] = cell
    lines[i] = b",".join(cells)
    return b"\n".join(lines)


def _insert(data: bytes, rng, text: bytes) -> bytes:
    i = int(rng.integers(len(data) + 1))
    return data[:i] + text + data[i:]


def _flip(data: bytes, rng) -> bytes:
    i = int(rng.integers(len(data)))
    return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(8)))]) + data[i + 1:]


def _drop_line(data: bytes, rng) -> bytes:
    lines = data.split(b"\n")
    del lines[int(rng.integers(len(lines)))]
    return b"\n".join(lines)


def _duplicate_line(data: bytes, rng) -> bytes:
    lines = data.split(b"\n")
    lines.insert(int(rng.integers(len(lines) + 1)), lines[int(rng.integers(len(lines)))])
    return b"\n".join(lines)


MUTATIONS = [
    _flip,
    lambda data, rng: _insert(data, rng, [b",", b'"', b"\r", b"\n"][int(rng.integers(4))]),
    lambda data, rng: _insert(data, rng, "−".encode()),
    lambda data, rng: _replace_cell(data, rng, b"-999.25"),
    lambda data, rng: _replace_cell(data, rng, [b"9", b"x"][int(rng.integers(2))] * 140_000),
    lambda data, rng: b"\xef\xbb\xbf" + data,
    lambda data, rng: _insert(data, rng, [b"\xff", b"\xe9", b"\x80"][int(rng.integers(3))]),
    _drop_line,
    _duplicate_line,
]


def test_mutated_tables_exit_with_documented_codes(tmp_path, monkeypatch, capsys):
    seeds = _seed_tables(tmp_path)
    paths = {"fast": 0, "csv": 0}

    def read_fast(*args, _read_fast=dataio._read_fast):
        parsed = _read_fast(*args)
        paths["fast"] += parsed is not None
        return parsed

    def read_csv(*args, _read_csv=dataio._read_csv):
        paths["csv"] += 1
        return _read_csv(*args)

    monkeypatch.setattr(dataio, "_read_fast", read_fast)
    monkeypatch.setattr(dataio, "_read_csv", read_csv)
    rng = np.random.default_rng(SEED)
    path, out = tmp_path / "m.csv", str(tmp_path / "out")
    codes = {}
    for k in range(MUTANTS):
        data = seeds[k % 2]
        for _ in range(int(rng.integers(1, 4))):
            data = MUTATIONS[int(rng.integers(len(MUTATIONS)))](data, rng)
        path.write_bytes(data)
        for command in ("prepare", "features"):
            try:
                code = welldesc.cli.main([command, "--input", str(path), "--out", out])
            except Exception as exc:
                pytest.fail(f"mutant {k}, {command}: {exc!r}")
            assert code in EXIT_CODES, (k, command, code)
            codes[code] = codes.get(code, 0) + 1
        capsys.readouterr()
    # both loader paths read tables, and the corpus holds loadable and faulty files
    assert min(paths.values()) >= 100, paths
    assert min(codes.get(0, 0), codes.get(2, 0)) >= 100, codes
