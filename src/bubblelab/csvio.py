"""CSV emission for equilibrium paths and sweep tables.

Format contract: comma separators, LF line endings, a header row, floats at
12 significant digits (``%.12g``: ``nan``, ``inf``, ``-inf``, ``-0``), fields
quoted RFC-4180 style when they need it. Deterministic byte for byte given
the same inputs, wherever the block edges below fall.

How cells are made. A column's cells are rows of bytes in which a NUL byte
is no text, and the last byte of every row is NUL, free for the separator.
Float cells come from one vectorised kernel, ``_g12_lanes``, which gives
``"%.12g" % x`` of a whole float64 array as four little-endian uint64 lanes
(32 bytes) per cell, packed so that the cells of a column share a narrow
span of bytes: bytes 0 to 7 (lane 0) the sign and any ``0.000`` prefix, or
the whole of ``0``, ``-0``, ``nan``, ``inf`` and ``-inf``, right-aligned to
end at byte 7; bytes 8 to 20 the twelve digits with the point placed and the
trailing zeros dropped; from byte 21, straight after them, the exponent
``e+XX`` or ``e+XXX`` when there is one. The twelve digits are ``rint(p)``
of the plain product ``p = fl(|x| * fl(10**(11 - e)))``, which two roundings
put within 2.23e-4 of ``|x| * 10**(11 - e)`` below 1e12: where ``p`` lies
farther than ``_TIE_WIDTH`` (2**-11) from a half, they are the digits of
``%.12g``. Where the kernel cannot decide, it takes the digits and the
exponent from ``"%.11e" % x``, all such cells of a call in one batch, and
lays them out like every other cell, so a handed-back cell does not widen
its column: ``p`` within that window of a half (a possible tie, which both
formats round half to even; about 0.1% of cells), ``|x|`` below 1e-290 or
above 1e300 (beyond its powers of ten, down to the subnormals' ``e-324``),
and a mantissa still out of range after the one correction of the exponent.
The digits come from three groups of four, split by exact float floor
division, each group's bytes and trailing zeros read from a table; one row
per exponent and sign gives lane 0, the place of the point and the exponent's
bytes in one gather. Integer arrays whose values all lie in 0 to
``_COUNT_CAP - 1`` (2**16) take their cells from the counting table, the
kernel's cells of 0 to the next power of two above the largest value seen
yet, built on first use and rebuilt when a larger value comes: a path's
``t`` column is one gather. Other integer columns within ±1e12, where
``%.12g`` is ``str``, and lists of floats take the kernel; booleans, text
(quoted where needed) and other integers become byte rows of their own. A
NUL inside a text cell is written as 0xFF, a byte UTF-8 never uses, and
turned back once the NULs are dropped.

One block writer, ``_write_blocks``, takes at most ``BLOCK_ROWS`` rows of
every column at a time, and ends a block where a column shorter than the
file ends, so that a column has all of a block's rows or none; a column with
none is a blank one byte wide. ``_block_cells`` formats the float cells of
all of its columns together, once per run of equal bit patterns (a run never
crosses from one column into the next) and at most ``CHUNK_CELLS`` cells per
kernel call; a float column whose bits equal an earlier column's in the
block (``price_rent`` and ``P`` where the rent is 1) shares that column's
cells. It keeps of each float column only the bytes its cells use: a
column with no two equal neighbours is a view of the kernel's rows, and only
a column with runs copies its rows out to one per cell. ``render_csv`` lays
the columns side by side, puts the separators into the free bytes, drops the
NULs and decodes the text, which is written out before the next block, so a
run holds one block of text however long the file. A path CSV has one row
per period, its ``V`` and ``bubble`` cells blank past the end of their
arrays; a table stops at its shortest column. ``write_csv``, the one file
writer, writes given columns for a given number of rows into an open text
file, path CSVs and sweep tables alike; ``emit_csv`` and ``emit_table_csv``
write into a buffer whose text they return. Each of the three calls
``_write_blocks`` itself rather than through another, so in a traced run
the formatting is the self time of the function that was called.
"""

from __future__ import annotations

import functools
import io
from types import SimpleNamespace
from typing import TYPE_CHECKING, TextIO

import numpy as np

from .paths import EquilibriumPath

if TYPE_CHECKING:
    from .valuation import BubbleReport

PATH_COLUMNS = ("t", "P", "D", "R", "W", "K", "phi", "price_rent", "yield", "V", "bubble")

_PATH_FIELDS = dict(P="price", D="dividend", R="rate", W="wealth", K="capital", phi="phi")

BLOCK_ROWS = 4096
CHUNK_CELLS = 8192   # float cells per kernel call, which bounds its temporaries

_format_g12 = "%.12g".__mod__
_format_e11 = "%.11e".__mod__

_KERNEL_RANGE = (1e-290, 1e300)
# p = fl(a * fl(10**k)) takes two roundings of relative error u = 2**-53 each,
# so |p - a * 10**k| <= (2u + u**2) * a * 10**k < 2.23e-4 while a * 10**k < 1e12;
# a p farther than twice that from a half rounds as a * 10**k does
_TIE_WIDTH = 2.0**-11
_EXP_OFF = 330                # exponent e of x at index e + _EXP_OFF of the tables
_EXP_SIZE = 2 * _EXP_OFF + 1
# lane 0 by sign * 5 + prefix length; the special values by their kind
_LEAD = ("", "0.", "0.0", "0.00", "0.000", "-", "-0.", "-0.0", "-0.00", "-0.000")
_SPECIAL = ("0", "-0", "nan", "inf", "-inf")
_ZERO, _NAN, _INF = 0, 2, 3
_COUNT_CAP = 2**16            # rows of the counting table at most

_counts = np.zeros((0, 6), np.uint8)   # the cells of 0 to len - 1, grown on demand


def format_float(x: float) -> str:
    return _format_g12(x)


def _lanes_of(cells: list[bytes]) -> np.ndarray:
    """Byte strings of at most 8 bytes as uint64 lane values, first byte lowest."""
    return np.array(cells, dtype="S8").view("<u8").astype(np.uint64)


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on its first call."""
    digits = np.indices((10,) * 4).reshape(4, 10_000)   # of 0..9999, first digit first
    quad = ((digits + ord("0")) << np.arange(0, 32, 8)[:, None]).sum(axis=0)
    trailing = np.cumprod(digits[::-1] == 0, axis=0).sum(axis=0)

    # point position p (0: no point in lanes 1-2) by kept digits k: masks on
    # the digits, on the digits shifted one byte up, and the point itself
    p, k, j = np.ogrid[:13, :13, :16]
    frac = (p >= 1) & (k > p)
    masks = np.zeros((13, 13, 3, 16), np.uint8)
    masks[:, :, 0] = np.where(np.where(p == 0, j < k, j < p), 0xFF, 0)
    masks[:, :, 1] = np.where(frac & (j > p) & (j <= k), 0xFF, 0)
    masks[:, :, 2] = np.where(frac & (j == p), ord("."), 0)
    masks = masks.reshape(169, 48).view("<u8").astype(np.uint64)

    e = np.arange(_EXP_SIZE) - _EXP_OFF
    fixed = (e >= -4) & (e < 12)
    exp = _lanes_of([b"" if f else b"e%+03d" % x for x, f in zip(e.tolist(), fixed.tolist())])
    lead = _lanes_of([s.encode().rjust(8, b"\0") for s in _LEAD])
    prefix = np.where(fixed & (e < 0), -e, 0)
    # one row per exponent and sign, at (e + _EXP_OFF) * 2 + sign: lane 0, the
    # row of masks for no trailing zeros, and the exponent's bytes 21-23 (after
    # the digits) and 24-25
    rows = np.empty((_EXP_SIZE, 2, 4), np.uint64)
    rows[:, 0, 0], rows[:, 1, 0] = lead[prefix], lead[5 + prefix]
    rows[:, :, 1] = (np.where(fixed, np.where(e >= 0, e + 1, 0), 1) * 13 + 12)[:, None]
    rows[:, :, 2] = (exp << 40)[:, None]
    rows[:, :, 3] = (exp >> 24)[:, None]
    return SimpleNamespace(
        quad=quad.astype(np.uint64),
        trailing=trailing.astype(np.uint64),
        masks=masks,
        rows=rows.reshape(2 * _EXP_SIZE, 4),
        special=_lanes_of([s.encode().rjust(8, b"\0") for s in _SPECIAL]),
        bools=np.array([b"false", b"true"], dtype="S6").view(np.uint8).reshape(2, 6),
        # fl(10**k), correctly rounded as CPython parses decimal literals; the
        # kernel reads the k = 11 - e of |x| in _KERNEL_RANGE, one correction wider
        pow10=np.array([float(f"1e{k}") if -290 <= k <= 302 else 0.0 for k in (11 - e).tolist()]),
    )


def _mantissa(tab: SimpleNamespace, a: np.ndarray, e: np.ndarray):
    """``rint(a * 10**(11 - e))`` from the plain product, and where that
    product lies within ``_TIE_WIDTH`` of a half, too close to call."""
    p = a * tab.pow10[e + _EXP_OFF]
    m = np.rint(p)
    p -= m            # exact, and at most a half
    return m, np.abs(p, out=p) > 0.5 - _TIE_WIDTH


def _g12_lanes(x: np.ndarray) -> np.ndarray:
    """``"%.12g" % v`` of every value of the float64 array ``x``, as an
    ``(x.size, 4)`` array of little-endian uint64 lanes (see the module
    docstring); a NUL byte is no text, the last byte of a cell always NUL."""
    tab = _tables()
    sign = np.signbit(x)
    a = np.abs(x)
    rare = np.flatnonzero(~((a >= _KERNEL_RANGE[0]) & (a <= _KERNEL_RANGE[1])))
    a[rare] = 1.0     # zeros, NaNs, infinities and |x| beyond the powers of ten
    e = np.floor(np.log10(a)).astype(np.int64)
    m, back = _mantissa(tab, a, e)   # back: handed back to the per-cell formatter
    wide = (m < 1e11) | (m >= 1e12)
    redo = np.flatnonzero(wide)
    if redo.size:
        e[redo] += np.where(m[redo] >= 1e12, 1, -1)
        m[redo], near = _mantissa(tab, a[redo], e[redo])
        back[redo] |= near    # a first pass near a half may have chosen e wrongly
        wide[redo] = (m[redo] < 1e11) | (m[redo] >= 1e12)
    back |= wide
    special = ~np.isfinite(x[rare]) | (x[rare] == 0)
    back[rare] = ~special
    slow = np.flatnonzero(back)
    if slow.size:
        # the digits and exponent %.12g rounds to, correctly, as %.11e has them
        texts = [t.lstrip("-") for t in map(_format_e11, x[slow].tolist())]
        m[slow] = [int(t[0] + t[2:13]) for t in texts]
        e[slow] = [int(t[14:]) for t in texts]

    # m is an integer below 1e12, so no quotient rounds across an integer
    g0 = np.floor(m / 1e8)
    m -= g0 * 1e8
    g1 = np.floor(m / 1e4)
    m -= g1 * 1e4
    g0, g1, g2 = g0.astype(np.intp), g1.astype(np.intp), m.astype(np.intp)
    d1 = tab.quad[g0] | (tab.quad[g1] << 32)
    d2 = tab.quad[g2]
    zeros = tab.trailing[g2]
    z = np.flatnonzero(g2 == 0)
    if z.size:
        g1 = g1[z]
        zeros[z] += tab.trailing[g1] + (g1 == 0) * tab.trailing[g0[z]]
    e += _EXP_OFF
    e *= 2
    out = np.take(tab.rows, e + sign, axis=0)   # row (e + _EXP_OFF) * 2 + sign
    masks = np.take(tab.masks, out[:, 1] - zeros, axis=0)
    # the digits, the digits one byte up and the point, in place
    lane = d1 << 8
    lane &= masks[:, 2]
    lane |= masks[:, 4]
    lane |= d1 & masks[:, 0]
    out[:, 1] = lane
    np.left_shift(d2, 8, out=lane)
    lane |= d1 >> 56
    lane &= masks[:, 3]
    lane |= masks[:, 5]
    d2 &= masks[:, 1]
    out[:, 2] |= lane | d2

    if special.any():
        at = rare[special]
        s = x[at]
        out[at] = 0
        kind = np.where(np.isnan(s), _NAN, np.where(s == 0, _ZERO, _INF) + sign[at])
        out[at, 0] = tab.special[kind]
    return out.astype("<u8", copy=False)


def _runs(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and length of every run, given a flag per cell that is
    true where a run starts."""
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=first.size)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _distinct(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The float64 columns with no earlier column of the same bits, and the
    index among them of every column's first equal. Bits, not ``==``, so
    ``-0.0`` and ``0.0`` and NaNs with different payloads stay apart; a
    column's length and first bits rule a candidate out before the rest."""
    distinct, index, seen = [], [], {}
    for a in arrays:
        same = seen.setdefault((a.size, a[:1].tobytes()), [])
        i = next((i for i in same if _same_bits(a, distinct[i])), None)
        if i is None:
            i = len(distinct)
            same.append(i)
            distinct.append(a)
        index.append(i)
    return distinct, index


def _float_lanes(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """The cells of float64 columns as uint8 rows: the kernel formats each
    run of neighbours with the same bit pattern once, ``CHUNK_CELLS`` runs
    at a time. Bits, not ``==``, mark a run, so ``-0.0`` and ``0.0`` and
    NaNs with different payloads stay apart, and a run never crosses from
    one column into the next. Each column keeps only the span of the 32
    bytes that its cells use, and one free byte after it. A column with no
    run longer than one cell is that span of the kernel's rows, a view; only
    a column with longer runs repeats its rows. A column whose bits equal an
    earlier one's shares its cells."""
    arrays, index = _distinct(arrays)
    offsets = np.cumsum([0] + [a.size for a in arrays])
    values = np.concatenate(arrays) if arrays else np.empty(0)
    bits = values.view(np.uint64)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    first[offsets[:-1][offsets[:-1] < values.size]] = True
    starts, lengths = _runs(first)
    lanes = np.empty((starts.size, 4), "<u8")
    for i in range(0, starts.size, CHUNK_CELLS):
        lanes[i : i + CHUNK_CELLS] = _g12_lanes(values[starts[i : i + CHUNK_CELLS]])
    # the runs of column j are bounds[j] to bounds[j + 1]
    bounds = np.searchsorted(starts, offsets).tolist()
    filled = np.flatnonzero(np.diff(offsets))
    used = np.bitwise_or.reduceat(lanes, np.take(bounds, filled), axis=0)
    used = used.view(np.uint8) != 0
    lows, highs = used.argmax(axis=1), 31 - used[:, ::-1].argmax(axis=1)
    cells = [lanes[r0:r1].view(np.uint8) for r0, r1 in zip(bounds, bounds[1:])]
    for j, lo, hi in zip(filled.tolist(), lows.tolist(), highs.tolist()):
        r0, r1 = bounds[j], bounds[j + 1]
        if r1 - r0 < arrays[j].size:
            # whole 32-byte rows, which numpy repeats faster than a narrower span
            cells[j] = np.repeat(cells[j], lengths[r0:r1], axis=0)
        cells[j] = cells[j][:, lo : hi + 2]
    return [cells[i] for i in index]


def _text_rows(texts: list[str]) -> np.ndarray:
    """Formatted, quoted text cells as NUL-padded UTF-8 rows with a free
    last byte, each NUL of a text written as 0xFF."""
    data = [s.encode("utf-8", "surrogatepass").replace(b"\0", b"\xff") for s in texts]
    arr = np.array(data, dtype=bytes)
    width = arr.dtype.itemsize
    rows = np.zeros((len(data), width + 1), np.uint8)
    rows[:, :width] = arr.view(np.uint8).reshape(len(data), width)
    return rows


def _floats(col: list[object] | np.ndarray) -> np.ndarray | None:
    """A column as float64 when the kernel gives every cell its text: float
    arrays, integer arrays within ±1e12, lists of floats; else None."""
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
        if kind == "f" or (kind in "iu" and ((col > -10**12) & (col < 10**12)).all()):
            return np.asarray(col, dtype=np.float64)
        if kind != "O":
            return None
    if all(isinstance(v, float) for v in col):
        return np.array(col, dtype=np.float64)
    return None


def _text_cells(col: list[object] | np.ndarray) -> np.ndarray:
    """The byte rows of a column the kernel does not format: booleans from
    a table, text arrays once per run of equal neighbours, anything else
    cell by cell."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "b":
            return _tables().bools[col.view(np.uint8)]
        if col.dtype.kind == "U":
            first = np.ones(col.size, dtype=bool)
            first[1:] = col[1:] != col[:-1]
            starts, lengths = _runs(first)
            texts = list(map(quote_field, col[starts].tolist()))
            return np.repeat(_text_rows(texts), lengths, axis=0)
        col = col.tolist()
    return _text_rows([quote_field(_format_value(v)) for v in col])


def _counted(col: list[object] | np.ndarray) -> np.ndarray | None:
    """The cells of an integer array from the counting table when every
    value lies in 0 to ``_COUNT_CAP - 1``, else None. The table holds the
    kernel's cells of 0 to the next power of two above the largest value
    asked for yet, each left-aligned in 6 bytes, and grows when a larger
    value comes."""
    global _counts
    if not (isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.size):
        return None
    top = int(col.max())
    if top >= _COUNT_CAP or col.min() < 0:
        return None
    if top >= len(_counts):
        n = np.arange(1 << top.bit_length(), dtype=np.float64)
        lanes = [_g12_lanes(n[i : i + CHUNK_CELLS]) for i in range(0, n.size, CHUNK_CELLS)]
        _counts = np.concatenate(lanes).view(np.uint8)[:, 8:14].copy()
        _counts[0, 0] = ord("0")    # the kernel right-aligns 0 in lane 0
    return np.take(_counts, col, axis=0)[:, : len(str(top)) + 1]


def _block_cells(
    columns: list[list[object] | np.ndarray], start: int, stop: int
) -> list[np.ndarray]:
    """The cells of rows ``start`` to ``stop`` of every column as uint8
    byte rows, the float cells of all columns formatted together; a column
    that has ended by ``start`` is one NUL byte a row, a blank cell."""
    parts = [col[start:stop] for col in columns]
    counted = [_counted(part) for part in parts]
    floats = [None if c is not None else _floats(p) for p, c in zip(parts, counted)]
    lanes = iter(_float_lanes([f for f in floats if f is not None]))
    block = []
    for part, cells, values in zip(parts, counted, floats):
        if cells is None:
            cells = _text_cells(part) if values is None else next(lanes)
        block.append(cells if len(cells) else np.zeros((stop - start, 1), np.uint8))
    return block


def quote_field(s: str) -> str:
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def render_csv(header: list[str] | None, columns: list[np.ndarray]) -> str:
    """Join columns of cells given as uint8 byte rows of one length (NUL
    bytes are no text, the last byte of a row is free) row by row, under the
    quoted header. A header of ``None`` gives the rows alone, as for every
    block of a file but its first."""
    head = "" if header is None else ",".join(map(quote_field, header)) + "\n"
    if not columns or len(columns[0]) == 0:
        return head
    block = np.concatenate(columns, axis=1)
    block[:, np.cumsum([c.shape[1] for c in columns]) - 1] = ord(",")
    block[:, -1] = ord("\n")
    body = block.tobytes().translate(None, b"\0")
    if b"\xff" in body:
        body = body.replace(b"\xff", b"\0")
    return head + body.decode("utf-8", "surrogatepass")


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


def _write_blocks(
    out: TextIO, header: list[str], columns: list[list[object] | np.ndarray], n: int
) -> None:
    """Write the first ``n`` rows of ``columns`` to ``out``, at most
    ``BLOCK_ROWS`` rows at a time, the header with the first block (the only
    one when ``n`` is 0). A column that ends before row ``n`` ends a block
    there too, and gets blank cells after it."""
    ends = (len(col) for col in columns if len(col) < n)
    edges = sorted({*range(0, max(n, 1), BLOCK_ROWS), *ends})
    head = header
    for start, stop in zip(edges, edges[1:] + [n]):
        out.write(render_csv(head, _block_cells(columns, start, stop)))
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


def write_csv(
    out: TextIO, header: list[str], columns: list[list[object] | np.ndarray], rows: int
) -> None:
    """Write ``rows`` rows of ``columns`` under ``header`` to the open text
    file ``out``, a block of rows at a time; a column that ends sooner is
    blank after its end. For a path CSV ``rows`` is the path's length, for
    a table its grid's."""
    _write_blocks(out, header, columns, rows)


def emit_csv(
    path: EquilibriumPath,
    columns: tuple[str, ...],
    report: BubbleReport | None = None,
) -> str:
    """Serialize selected columns of a path; ``V`` and ``bubble`` cells are
    blank where the valuation is undefined."""
    if len(columns) == 0:
        raise ValueError("at least one column required")
    arrays = [column_array(path, name, report) for name in columns]
    out = io.StringIO()
    _write_blocks(out, list(columns), arrays, len(path))
    return out.getvalue()


def emit_table_csv(header: list[str], columns: list[list[object] | np.ndarray]) -> str:
    """Serialize a table given as one column per header name (sweeps,
    summaries): floats at 12 significant digits, booleans as ``true`` and
    ``false``, everything else via str. Rows past the shortest column are
    dropped."""
    out = io.StringIO()
    _write_blocks(out, header, columns, min(map(len, columns), default=0))
    return out.getvalue()
