"""CSV and manifest writers shared by the experiment pipelines and the CLI.

The CSV contract: header row, comma separators, '\n' line ends, '.' radix,
floats rendered with exactly 17 significant digits (round-trip safe), the
literal "inf" for the +infinity sentinel, vectors as ';'-joined floats.
Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._errors import DataError, UsageError


def fmt_cell(v) -> str:
    """Render one CSV cell deterministically (a 1-d array as ';'-joined cells)."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # .16e always carries 17 significant digits and prints inf, -inf and
        # nan bare.
        return "%.16e" % float(v)
    if isinstance(v, np.ndarray):
        return ";".join(fmt_cell(u) for u in v)
    return str(v)


def write_csv(path, header: list[str], rows) -> str:
    """Write rows (iterables of cells) under a header; returns the path."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")
    return str(path)


def read_csv_columns(path, expected_header: list[str] | None = None):
    """Read a CSV written by write_csv into a dict of float arrays.

    Cells parse with float(), the inverse of fmt_cell ('inf' is +infinity).
    A row whose cell count differs from the header's, or a non-numeric
    cell, raises DataError naming the line.
    """
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip().split(",")
        if expected_header is not None and header != expected_header:
            raise DataError("CSV header %r does not match expected %r"
                            % (header, expected_header))
        cols = [[] for _ in header]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataError("%s line %d has %d cells, the header has %d"
                                % (path, lineno, len(parts), len(header)))
            try:
                for col, part in zip(cols, parts):
                    col.append(float(part))
            except ValueError:
                raise DataError("%s line %d has a non-numeric cell: %r"
                                % (path, lineno, line))
    return {name: np.array(vals) for name, vals in zip(header, cols)}


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def grid_spec(lo: float, step: float, count: int) -> dict:
    """Manifest form of a uniform grid; regeneration is lo + step*arange(count)."""
    return {"lo": lo, "step": step, "count": int(count)}


def make_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform grid lo + step*arange(count) covering [lo, hi]."""
    if not step > 0:
        raise UsageError("grid step must be > 0")
    count = int(round((hi - lo) / step)) + 1
    if count < 1:
        raise UsageError("empty grid: lo=%r hi=%r step=%r" % (lo, hi, step))
    return lo + step * np.arange(count)
