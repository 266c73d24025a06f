"""CSV and manifest writers shared by the experiment pipelines and the CLI.

The CSV contract: header row, comma separators, '\n' line ends, '.' radix,
floats rendered with exactly 17 significant digits (round-trip safe), the
literal "inf" for the +infinity sentinel, vectors as ';'-joined floats.
Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

from ._errors import DataError, UsageError

_BATCH_ROWS = 1 << 12  # rows formatted per row-template batch
# A cell's %-spec by type, "%s" for any other; %.16e always carries 17
# significant digits and prints inf, -inf and nan bare.
_SPECS = (("%.16e", (float, np.floating)), ("%d", (int, np.integer, np.bool_)))


def fmt_cell(v) -> str:
    """Render one CSV cell deterministically (a 1-d array as ';'-joined cells)."""
    if isinstance(v, np.ndarray):
        return ";".join(map(fmt_cell, v))
    return next((spec for spec, kinds in _SPECS if isinstance(v, kinds)), "%s") % (v,)


def write_rows(fh, rows, sep: str = ",") -> None:
    """Write equal-length rows as lines of fmt_cell cells, formatting each batch
    of _BATCH_ROWS rows with one row template: a column whose cells share one
    %-spec takes it, any other is rendered by fmt_cell and written as %s."""
    rows = iter(rows)
    while batch := list(map(tuple, itertools.islice(rows, _BATCH_ROWS))):
        if len({len(row) for row in batch}) > 1:
            raise UsageError("CSV rows must all have the same number of cells")
        flat, width, specs = list(itertools.chain.from_iterable(batch)), len(batch[0]), []
        for col in range(width):
            types = set(map(type, flat[col::width]))
            specs.append(next((spec for spec, kinds in _SPECS
                               if all(issubclass(t, kinds) for t in types)), "%s"))
            if specs[-1] == "%s" and types != {str}:
                flat[col::width] = map(fmt_cell, flat[col::width])
        fh.write(((sep.join(specs) + "\n") * len(batch)) % tuple(flat))


def write_csv(path, header: list[str], rows) -> str:
    """Write rows (iterables of cells) under a header; returns the path."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        write_rows(fh, rows)
    return str(path)


def read_csv_columns(path, expected_header: list[str] | None = None):
    """Read a CSV written by write_csv into a dict of float arrays.

    Cells parse with float(), the inverse of fmt_cell ('inf' is +infinity).
    A file that is not UTF-8 text, a row whose cell count differs from the
    header's, or a non-numeric cell, raises DataError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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
    except UnicodeDecodeError as exc:
        raise DataError("CSV %s is not UTF-8 text: %s" % (path, exc))
    return {name: np.array(vals) for name, vals in zip(header, cols)}


def read_json_object(path, keys, what: str) -> dict:
    """The JSON object in the file at path, named what in errors.  A file that
    is not UTF-8 JSON, a value that is not an object and a key not in keys
    raise UsageError; an unreadable file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad bytes, bad JSON, too deep
            raise UsageError("%s %s is not UTF-8 JSON: %s" % (what, path, exc))
    if not isinstance(doc, dict):
        raise UsageError("%s %s must be a JSON object" % (what, path))
    if unknown := sorted(set(doc) - set(keys)):
        raise UsageError("unknown %s keys: %s" % (what, ", ".join(unknown)))
    return doc


def json_safe(obj):
    """Recursively convert to JSON-clean types; the one float policy of every JSON
    output: non-finite floats become "inf", "-inf" and "nan", not bare Infinity."""
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # str() spells the non-finite floats "inf", "-inf" and "nan".
        return float(obj) if math.isfinite(obj) else str(float(obj))
    return obj


def _sha256(path) -> str:
    """Hex sha256 of a file's bytes, read in 1 MiB chunks."""
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
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError("grid lo=%r, hi=%r and step=%r must be finite" % (lo, hi, step))
    if not step > 0:
        raise UsageError("grid step must be > 0")
    count = int(round((hi - lo) / step)) + 1
    if count < 1:
        raise UsageError("empty grid: lo=%r hi=%r step=%r" % (lo, hi, step))
    return lo + step * np.arange(count)
