"""Tests for the CSV and grid serialization helpers."""

import numpy as np
import pytest

from blockldp import DataError, Schedule, UsageError, brownian_experiment
from blockldp import _serialize
from blockldp._serialize import (_sha256, fmt_cell, grid_spec, make_grid,
                                 read_csv_columns, write_csv)


def test_fmt_cell_forms():
    assert fmt_cell(True) == "1" and fmt_cell(False) == "0"
    assert fmt_cell(np.bool_(True)) == "1"
    assert fmt_cell(7) == "7" and fmt_cell(np.int64(-3)) == "-3"
    assert fmt_cell(0.0) == "0.0000000000000000e+00"
    assert fmt_cell(np.float64(2.5)) == "2.5000000000000000e+00"
    assert fmt_cell(float("inf")) == "inf"
    assert fmt_cell(float("-inf")) == "-inf"
    assert fmt_cell("word") == "word"


def test_fmt_cell_non_finite_and_vectors():
    assert fmt_cell(np.inf) == "inf" and fmt_cell(-np.inf) == "-inf"
    assert fmt_cell(np.float64("nan")) == "nan"
    assert fmt_cell(np.array([0.5, -np.inf])) == "5.0000000000000000e-01;-inf"
    assert fmt_cell(np.array([0.25])) == fmt_cell(0.25)


def test_float_cells_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    vals = np.concatenate([rng.normal(0.0, 1e6, 50), rng.normal(0.0, 1e-6, 50),
                           [0.0, np.inf, -np.inf]])
    path = write_csv(tmp_path / "v.csv", ["v"], [(v,) for v in vals])
    back = read_csv_columns(path, ["v"])["v"]
    assert np.array_equal(back, vals)


def test_write_csv_exact_bytes(tmp_path):
    path = write_csv(tmp_path / "r.csv", ["a", "b"], [(1, 2.5), (True, "x")])
    with open(path, "rb") as fh:
        assert fh.read() == b"a,b\n1,2.5000000000000000e+00\n1,x\n"


def _per_cell(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(fmt_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _typed_rows(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    specials = [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308]
    rows = []
    for i in range(count):
        x = float(rng.normal()) if i % 7 else specials[i % len(specials)]
        rows.append((i % 2 == 0, np.bool_(i % 3 == 0), i - 5, np.int64(-i), x,
                     np.float64(x * 1e-9), "w%d" % i, rng.normal(size=2)))
    return rows


@pytest.mark.parametrize("count", [0, 1, 5, _serialize._BATCH_ROWS + 3])
def test_write_csv_matches_per_cell_formatting(tmp_path, count):
    header = ["b", "nb", "i", "ni", "f", "nf", "s", "vec"]
    rows = _typed_rows(count, count)
    path = write_csv(tmp_path / "t.csv", header, iter(rows))
    with open(path, "rb") as fh:
        assert fh.read() == _per_cell(header, rows)


def test_write_csv_mixed_columns_and_generators(tmp_path):
    # Every column mixes cell types, within one batch and across batches.
    cells = [True, np.bool_(False), 3, np.int64(-4), 0.1, np.float64(-np.inf),
             np.float64(np.nan), "x", np.array([0.5, np.inf]), np.array([])]
    count = _serialize._BATCH_ROWS + 11
    rows = [tuple(cells[(i + j * j) % len(cells)] for j in range(3)) for i in range(count)]
    path = write_csv(tmp_path / "m.csv", ["a", "b", "c"], (r for r in rows))
    with open(path, "rb") as fh:
        assert fh.read() == _per_cell(["a", "b", "c"], rows)
    brown = brownian_experiment(2, 2.0, Schedule(0.5), (4,), ((0.1, -0.2),), 0.5, (1,))
    path = write_csv(tmp_path / "b.csv", brown.columns, brown.rows)
    with open(path, "rb") as fh:
        assert fh.read() == _per_cell(brown.columns, brown.rows)
    with pytest.raises(UsageError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [(1, 2), (3,)])


def test_read_csv_header_mismatch(tmp_path):
    path = write_csv(tmp_path / "x.csv", ["a"], [(1,)])
    with pytest.raises(DataError):
        read_csv_columns(path, ["b"])
    assert read_csv_columns(path, ["a"])["a"][0] == 1.0


def test_make_grid_and_spec():
    g = make_grid(-1.0, 1.0, 0.5)
    assert np.array_equal(g, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert grid_spec(g[0], 0.5, g.size) == {"lo": -1.0, "step": 0.5, "count": 5}
    g3 = make_grid(0.0, 1.0, 0.3)
    assert g3.size == 4 and np.allclose(g3, [0.0, 0.3, 0.6, 0.9], atol=1e-15)
    with pytest.raises(UsageError):
        make_grid(0.0, 1.0, 0.0)
    with pytest.raises(UsageError):
        make_grid(1.0, 0.0, 0.5)


def test_file_checksum_known_vector(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    want = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert _sha256(p) == want
