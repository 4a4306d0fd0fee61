"""Fixed-seed corpora of mutated inputs: well CSVs and model files.

Every mutated CSV run through `prepare` and `features` must end in one of the
exit codes the CLI documents, never in an exception. The corpus starts from
two small tables, one numpy's C reader takes and one with a blank cell, so
both of load_table's paths read it.

Every mutated model file, in each of the five formats load_model reads, must
either raise a MalformedFile whose message starts with the file's path, or
load and predict without a warning.

Every draw of `run` settings, given as flags or config lines and holding
zeros, subnormals, overflowing numbers, NaNs, infinities, blanks, text,
repeated names and unknown names, must end in a documented exit code with
one `error:` line or a report whose model files load again.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import welldesc.cli
from welldesc import (KernelSpec, NormStats, load_model, predict, predict_csvm,
                      predict_gnb, predict_lda, save_model, train, train_csvm, train_gnb, train_lda)
from welldesc import dataio
from welldesc.dataio import SynthConfig, gen_synthetic, write_table
from welldesc.errors import MalformedFile

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


MODEL_SEED = 23
MODEL_MUTANTS = 400  # per seed file
_EXTREMES = [b"0", b"-0", b"1e308", b"-1e308", b"1e200", b"1e-300", b"5e-324", b"nan", b"inf"]
_NUMBER = re.compile(rb"-?[0-9][0-9.e+-]*")
_TYPED = b"0123456789.-+e,= \n"  # bytes a hand edit of a model file inserts


def _seed_models(tmp_path) -> tuple:
    """(seeds, queries): seeds maps kind -> (file bytes, predict function), one
    fitted model per format, and queries are raw rows to predict.

    The features have unlike scales, so the files' scaling stats matter. The
    v1 SVDD file is the v2 one as earlier versions wrote it: with the zero
    alpha rows and without the self_term line.
    """
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0.0, 1.0, (20, 3)), rng.normal(2.0, 1.5, (20, 3))])
    X = X * [1.0, 10.0, 100.0] + [0.0, 50.0, 2000.0]
    y = np.array([0] * 20 + [1] * 20)
    stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    svdd = train(X[:20], KernelSpec(width=2.0), 0.2, norm_stats=stats)
    models = {"svdd": (svdd, predict),
              "svm": (train_csvm(X, y, KernelSpec(width=2.0), 1.0, norm_stats=stats), predict_csvm),
              "gnb": (train_gnb(X, y, stats), predict_gnb),
              "lda": (train_lda(X, y, stats), predict_lda)}
    seeds = {}
    for kind, (model, predict_fn) in models.items():
        save_model(model, tmp_path / "seed.txt")
        seeds[kind] = ((tmp_path / "seed.txt").read_bytes(), predict_fn)
    v2 = seeds["svdd"][0].split(b"\n")
    zeros = [b"alpha=0 x=" + ",".join(f"{v:.17g}" for v in x).encode()
             for x in svdd.X_train[svdd.alphas == 0.0]]
    v1 = [b"SVDD-MODEL v1"] + [ln for ln in v2[1:-1] if not ln.startswith(b"self_term=")] + zeros
    seeds["svdd-v1"] = (b"\n".join(v1 + [b""]), predict)
    queries = np.vstack([X, rng.normal(0.0, 3.0, (40, 3)) * [1.0, 10.0, 100.0] + [0.0, 50.0, 2000.0]])
    return seeds, queries


def _delete(data: bytes, rng) -> bytes:
    i = int(rng.integers(len(data)))
    return data[:i] + data[i + 1:]


def _swap_lines(data: bytes, rng) -> bytes:
    lines = data.split(b"\n")
    i, j = rng.integers(len(lines), size=2)
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _extreme_number(data: bytes, rng) -> bytes:
    """One number replaced by an extreme, a NaN or an infinity."""
    numbers = list(_NUMBER.finditer(data))
    if not numbers:
        return data
    match = numbers[int(rng.integers(len(numbers)))]
    return data[:match.start()] + _EXTREMES[int(rng.integers(len(_EXTREMES)))] + data[match.end():]


MODEL_MUTATIONS = [
    _flip,
    _delete,
    lambda data, rng: _insert(data, rng, bytes([_TYPED[int(rng.integers(len(_TYPED)))]])),
    _extreme_number,
    _drop_line,
    _duplicate_line,
    _swap_lines,
    lambda data, rng: data[:int(rng.integers(len(data)))],
]


def test_mutated_model_files_fail_cleanly_or_predict_silently(tmp_path):
    seeds, queries = _seed_models(tmp_path)
    rng = np.random.default_rng(MODEL_SEED)
    path = tmp_path / "m.txt"
    outcomes = {}
    for kind, (seed, predict_fn) in seeds.items():
        for k in range(MODEL_MUTANTS):
            data = seed
            for _ in range(int(rng.integers(1, 4))):
                if data:
                    data = MODEL_MUTATIONS[int(rng.integers(len(MODEL_MUTATIONS)))](data, rng)
            path.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    labels = predict_fn(load_model(path), queries)
                    outcome = "predicted"
                    assert labels.shape == (len(queries),)
                except MalformedFile as exc:
                    outcome = "malformed"
                    assert str(exc).startswith(f"{path}: "), f"{kind} mutant {k}: {exc}"
                except Exception as exc:
                    pytest.fail(f"{kind} mutant {k}: {exc!r}\n{data!r}")
            outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    # every format yields both files that load and files that are refused
    assert min(outcomes.get((kind, o), 0) for kind in seeds for o in ("predicted", "malformed")) >= 40, outcomes


SETTINGS_SEED = 13  # its draws reach exit codes 0, 2, 4 and 5 and the kept warning
SETTINGS_DRAWS = 300
# Values typed into a flag or a config line: both zeros, a subnormal, a
# number whose square overflows, the largest doubles, infinities, a NaN, a
# literal that overflows to inf, a blank, text, and two Python literals that
# float() or int() may or may not take.
_VALUES = ["0", "-0", "5e-324", "1e154", "1e308", "inf", "-inf", "nan", "1e400", "", "abc",
           "0x10", "1_0"]
_KEYS = ["seed", "threshold", "width", "degree", "offset", "cost", "csvm_cost", "relief_k",
         "max_passes"]
_FAMILIES = ["gaussian", "polynomial", "erbf"]
# The one warning a run may give: a polynomial kernel whose powers overflow,
# which its callers then refuse as NonFiniteInput (welldesc.kernels._errstate).
_KEPT_WARNING = ("kernels.py", "overflow encountered in power")


def _settings_draw(rng) -> list:
    """(key, value) pairs in order: a kernel family, one or two keys set
    from _VALUES, then maybe a repeated and an unknown name."""
    pairs = [("kernel", _FAMILIES[int(rng.integers(3))])]
    for key in rng.choice(_KEYS, size=int(rng.integers(1, 3)), replace=False):
        pairs.append((str(key), _VALUES[int(rng.integers(len(_VALUES)))]))
    if rng.integers(6) == 0:
        pairs.append((pairs[int(rng.integers(len(pairs)))][0],
                      _VALUES[int(rng.integers(len(_VALUES)))]))
    if rng.integers(10) == 0:
        pairs.append(("bogus", _VALUES[int(rng.integers(len(_VALUES)))]))
    return pairs


def test_fuzzed_run_settings_exit_with_documented_codes(tmp_path, capsys):
    """Each draw runs all four classifiers on a 3-well x 120-row table. The
    config file starts with max_passes=5000, which a draw's own lines and
    flags override: a homogeneous polynomial SVM otherwise runs to its
    default cap of 10 n^2 passes, seconds per draw."""
    table = tmp_path / "t.csv"
    write_table(gen_synthetic(SynthConfig(n_wells=3, rows_per_well=120, skew=0.8,
                                          n_features=6, seed=3)), table)
    cfg = tmp_path / "run.cfg"
    rng = np.random.default_rng(SETTINGS_SEED)
    codes, warned = {}, 0
    for k in range(SETTINGS_DRAWS):
        out = tmp_path / f"out{k}"
        flags, lines = [], ["max_passes=5000"]
        for key, value in _settings_draw(rng):
            if rng.integers(2):
                flags.append(f"--{key.replace('_', '-')}={value}")
            else:
                lines.append(f"{key}={value}")
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["run", "--input", str(table), "--out", str(out), "--config", str(cfg), *flags]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            try:
                code = welldesc.cli.main(argv)
            except SystemExit as exc:  # argparse refuses an unknown flag
                code = exc.code
            except Exception as exc:
                pytest.fail(f"draw {k}, {flags}, {lines}: {exc!r}")
            models = sorted(out.glob("model_*.txt"))
            if code in (0, 5):
                for path in models:
                    load_model(path)
        err = capsys.readouterr().err
        case = (k, flags, lines, code, err)
        assert code in EXIT_CODES, case
        assert "Traceback" not in err, case
        errors = sum("error:" in line for line in err.splitlines())
        assert errors == (0 if code in (0, 5) else 1), case
        assert code != 0 or len(models) == 12, case
        for w in seen:
            assert (Path(w.filename).name, str(w.message)) == _KEPT_WARNING, (case, w)
        codes[code] = codes.get(code, 0) + 1
        warned += bool(seen)
    # the draws reach runs that finish, refused settings, a split left with
    # no minority rows, a trainer that gives up, and the kept warning
    assert min(codes.get(c, 0) for c in (0, 2, 4, 5)) >= 1 and codes[0] >= 20, codes
    assert warned >= 1
