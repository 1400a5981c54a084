"""CSV emission for equilibrium paths and sweep tables.

Format contract: comma separators, LF line endings, a header row, floats at
12 significant digits (``%.12g``: ``nan``, ``inf``, ``-inf``, ``-0``), fields
quoted RFC-4180 style when they need it. Deterministic byte for byte given
the same inputs, wherever the block edges below fall.

One column formatter, ``_cells``, formats every column by its dtype: floats,
bools and text once per run of equal neighbours (floats with equal bit
patterns, equal texts), integers via str, lists and other arrays cell by
cell. Numbers never need quoting, so only the header and text cells go
through ``quote_field``. One block writer, ``_write_blocks``, formats
``BLOCK_ROWS`` rows of every column, joins them with ``render_csv`` and
writes them out before the next block, so a run holds one block of text
however long the file. A path CSV has one row per period, its ``V`` and
``bubble`` cells blank past the end of their arrays; a table stops at its
shortest column. ``write_csv`` and ``write_table_csv`` write into an open
text file, ``emit_csv`` and ``emit_table_csv`` into a buffer whose text they
return. Each of the four calls ``_write_blocks`` itself rather than through
another, so in a traced run the formatting is the self time of the function
that was called.
"""

from __future__ import annotations

import io
from collections.abc import Callable
from typing import TextIO

import numpy as np

from .paths import EquilibriumPath
from .valuation import BubbleReport

PATH_COLUMNS = ("t", "P", "D", "R", "W", "K", "phi", "price_rent", "yield", "V", "bubble")

_PATH_FIELDS = dict(P="price", D="dividend", R="rate", W="wealth", K="capital", phi="phi")

BLOCK_ROWS = 4096

_format_g12 = "%.12g".__mod__

_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def format_float(x: float) -> str:
    return _format_g12(x)


def _by_runs(
    values: np.ndarray, same: np.ndarray, fmt: Callable[[object], str]
) -> list[str]:
    """``fmt`` of every value, applied once per run of neighbours that
    ``same`` (one flag per neighbouring pair) marks as equal."""
    if values.size == 0:
        return []
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    cells = list(map(fmt, values[starts].tolist()))
    if len(cells) == values.size:
        return cells
    runs = np.diff(starts, append=values.size)
    return np.repeat(np.array(cells, dtype=object), runs).tolist()


def _float_cells(arr: np.ndarray | list[float]) -> list[str]:
    """The cells of a float column, formatting each run of neighbours with
    the same float64 bit pattern once. Bits, not ``==``, mark a run, so
    ``-0.0`` and ``0.0`` and NaNs with different payloads stay apart and
    every cell gets exactly the text ``format_float`` gives it."""
    values = np.asarray(arr, dtype=np.float64)
    bits = values.view(np.int64)
    return _by_runs(values, bits[1:] == bits[:-1], _format_g12)


def quote_field(s: str) -> str:
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(header: list[str] | None, columns: list[list[str]]) -> str:
    """Join columns of formatted cells (text cells already quoted) row by
    row, under the quoted header. A header of ``None`` gives the rows
    alone, as for every block of a file but its first."""
    lines = list(map(",".join, zip(*columns)))
    if header is not None:
        lines.insert(0, ",".join(map(quote_field, header)))
    return "\n".join(lines) + "\n" if lines else ""


def _format_value(v: object) -> str:
    """A table cell or run-summary value as text: booleans as ``true`` and
    ``false``, floats at 12 significant digits, anything else via str.
    Private, as a per-cell helper: the benchmark's span tracer wraps every
    public bubblelab function, and a span per cell would swamp its trace."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _format_g12(v)
    return str(v)


def _cells(col: list[object] | np.ndarray) -> list[str]:
    """One column's cells: an array by its dtype, a list cell by cell."""
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
        if kind == "f":
            return _float_cells(col)
        if kind == "b":
            return _BOOL_TEXT[col.view(np.uint8)].tolist()
        if kind == "U":
            return _by_runs(col, col[1:] == col[:-1], quote_field)
        if kind in "iu":
            return list(map(str, col.tolist()))
        col = col.tolist()
    if all(isinstance(v, float) for v in col):
        return _float_cells(col)
    return [quote_field(_format_value(v)) for v in col]


def _write_blocks(
    out: TextIO, header: list[str], columns: list[list[object] | np.ndarray], n: int
) -> None:
    """Write the first ``n`` rows of ``columns`` to ``out``, ``BLOCK_ROWS``
    rows at a time, the header with the first block (the only one when
    ``n`` is 0). A column that ends before row ``n`` gets blank cells."""
    head = header
    for start in range(0, max(n, 1), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        block = [_cells(col[start:stop]) for col in columns]
        for cells in block:
            cells += [""] * (stop - start - len(cells))
        out.write(render_csv(head, block))
        head = None


def column_array(
    path: EquilibriumPath, name: str, report: BubbleReport | None = None
) -> np.ndarray:
    """The values of path column ``name``: the periods for ``t``, floats for
    the rest. ``V`` and ``bubble`` stop one truncation window before the
    path's end."""
    if name == "t":
        return np.arange(len(path))
    if name in _PATH_FIELDS:
        arr = getattr(path, _PATH_FIELDS[name])
        if arr is None:
            raise ValueError(f"column {name!r} is not defined for this path")
        return arr
    if name == "price_rent":
        return path.price_rent()
    if name == "yield":
        return path.dividend_yield()
    if name in ("V", "bubble"):
        if report is None:
            raise ValueError(f"column {name!r} requires a valuation run on this scenario")
        return report.fundamental if name == "V" else report.bubble_component
    raise ValueError(f"unknown column {name!r}; known: {', '.join(PATH_COLUMNS)}")


def _path_columns(
    path: EquilibriumPath, columns: tuple[str, ...], report: BubbleReport | None
) -> list[np.ndarray]:
    """Every column of a path CSV, each checked before a cell is formatted."""
    if len(columns) == 0:
        raise ValueError("at least one column required")
    return [column_array(path, name, report) for name in columns]


def write_csv(
    out: TextIO,
    path: EquilibriumPath,
    columns: tuple[str, ...],
    report: BubbleReport | None = None,
) -> None:
    """Write ``emit_csv``'s text to the open text file ``out``, a block of
    rows at a time."""
    _write_blocks(out, list(columns), _path_columns(path, columns, report), len(path))


def emit_csv(
    path: EquilibriumPath,
    columns: tuple[str, ...],
    report: BubbleReport | None = None,
) -> str:
    """Serialize selected columns of a path; ``V`` and ``bubble`` cells are
    blank where the valuation is undefined."""
    out = io.StringIO()
    _write_blocks(out, list(columns), _path_columns(path, columns, report), len(path))
    return out.getvalue()


def write_table_csv(
    out: TextIO, header: list[str], columns: list[list[object] | np.ndarray]
) -> None:
    """Write ``emit_table_csv``'s text to the open text file ``out``, a
    block of rows at a time."""
    _write_blocks(out, header, columns, min(map(len, columns), default=0))


def emit_table_csv(header: list[str], columns: list[list[object] | np.ndarray]) -> str:
    """Serialize a table given as one column per header name (sweeps,
    summaries): floats at 12 significant digits, booleans as ``true`` and
    ``false``, everything else via str. Rows past the shortest column are
    dropped."""
    out = io.StringIO()
    _write_blocks(out, header, columns, min(map(len, columns), default=0))
    return out.getvalue()
