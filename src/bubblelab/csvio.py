"""CSV emission for equilibrium paths and sweep tables.

Format contract: comma separators, LF line endings, a header row, floats at
12 significant digits (``%.12g``: ``nan``, ``inf``, ``-inf``, ``-0``), fields
quoted RFC-4180 style when they need it. Deterministic byte for byte given
the same inputs. Cells are formatted a column at a time; numbers never need
quoting, so only the header and text cells go through ``quote_field``.
"""

from __future__ import annotations

import numpy as np

from .paths import EquilibriumPath
from .valuation import BubbleReport

PATH_COLUMNS = ("t", "P", "D", "R", "W", "K", "phi", "price_rent", "yield", "V", "bubble")

_PATH_FIELDS = dict(P="price", D="dividend", R="rate", W="wealth", K="capital", phi="phi")

_format_g12 = "%.12g".__mod__


def format_float(x: float) -> str:
    return _format_g12(x)


def quote_field(s: str) -> str:
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(header: list[str], columns: list[list[str]]) -> str:
    """Join columns of formatted cells (text cells already quoted) row by
    row, under the quoted header."""
    lines = [",".join(map(quote_field, header)), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def column_array(
    path: EquilibriumPath, name: str, report: BubbleReport | None = None
) -> np.ndarray:
    """The float values of path column ``name`` (every column but ``t``).
    ``V`` and ``bubble`` stop one truncation window before the path's end."""
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
            raise ValueError(
                f"column {name!r} requires a valuation run on this scenario"
            )
        return report.fundamental if name == "V" else report.bubble_component
    raise ValueError(f"unknown column {name!r}; known: {', '.join(PATH_COLUMNS)}")


def emit_csv(
    path: EquilibriumPath,
    columns: tuple[str, ...],
    report: BubbleReport | None = None,
) -> str:
    """Serialize selected columns of a path; ``V`` and ``bubble`` cells are
    blank where the valuation is undefined."""
    if len(columns) == 0:
        raise ValueError("at least one column required")
    n = len(path)
    cols = []
    for name in columns:
        if name == "t":
            cols.append(list(map(str, range(n))))
            continue
        arr = column_array(path, name, report)
        cols.append(list(map(_format_g12, arr.tolist())) + [""] * (n - arr.size))
    return render_csv(list(columns), cols)


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


def _table_cell(v: object) -> str:
    return quote_field(_format_value(v))


def emit_table_csv(header: list[str], columns: list[list[object]]) -> str:
    """Serialize a table given as one list per header name (sweeps,
    summaries): floats at 12 significant digits, booleans as ``true`` and
    ``false``, everything else via str."""
    cells = [
        list(map(_format_g12, col))
        if all(isinstance(v, float) for v in col)
        else list(map(_table_cell, col))
        for col in columns
    ]
    return render_csv(header, cells)
