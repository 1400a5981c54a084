"""The column-wise CSV emitter against the per-cell reference emitter.

The reference below formats and quote-checks every cell on its own, the
straightforward reading of the format contract in ``bubblelab.csvio``. The
column-wise emitter must produce the same bytes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (
    BareBonesParams,
    EquilibriumPath,
    csvio,
    fundamental_value,
    gross_rates,
    simulate_from_price,
    simulate_timevarying,
    steady_path,
)

# --- the per-cell reference emitter -------------------------------------------


def ref_format_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".12g")


def ref_quote_field(s: str) -> str:
    if any(c in s for c in ',"\n\r'):
        return '"' + s.replace('"', '""') + '"'
    return s


def ref_render_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(ref_quote_field(h) for h in header)]
    for row in rows:
        lines.append(",".join(ref_quote_field(f) for f in row))
    return "\n".join(lines) + "\n"


def ref_column_values(path, name, report) -> list[str]:
    n = len(path)
    if name == "t":
        return [str(t) for t in range(n)]
    simple = {
        "P": path.price,
        "D": path.dividend,
        "R": path.rate,
        "W": path.wealth,
        "K": path.capital,
        "phi": path.phi,
    }
    if name in simple:
        return [ref_format_float(v) for v in simple[name]]
    if name == "price_rent":
        return [ref_format_float(v) for v in path.price_rent()]
    if name == "yield":
        return [ref_format_float(v) for v in path.dividend_yield()]
    arr = report.fundamental if name == "V" else report.bubble_component
    return [ref_format_float(v) for v in arr] + [""] * (n - arr.size)


def ref_emit_csv(path, columns, report=None) -> str:
    cols = [ref_column_values(path, name, report) for name in columns]
    return ref_render_csv(list(columns), [list(r) for r in zip(*cols)])


def ref_emit_table_csv(header: list[str], rows: list[list[object]]) -> str:
    out_rows = []
    for row in rows:
        out = []
        for v in row:
            if isinstance(v, bool):
                out.append("true" if v else "false")
            elif isinstance(v, (float, np.floating)):
                out.append(ref_format_float(float(v)))
            else:
                out.append(str(v))
        out_rows.append(out)
    return ref_render_csv(header, out_rows)


def table_csv(header: list[str], columns: list[list[object]]) -> str:
    """The column-wise emitter's output, checked against the reference."""
    got = csvio.emit_table_csv(header, columns)
    assert got == ref_emit_table_csv(header, [list(r) for r in zip(*columns)])
    return got


# --- cases --------------------------------------------------------------------

SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
           -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
           1.0 / 3.0, 123456789012.5, 1e16, 1e-5, 100.0]


def random_doubles(count: int = 20_000) -> np.ndarray:
    """Doubles from random bit patterns: every exponent, subnormals, NaN
    payloads of either sign and both infinities."""
    bits = np.random.default_rng(7).integers(0, 2**64, count, dtype=np.uint64)
    return np.concatenate([np.array(SPECIAL), bits.view(np.float64)])


def test_format_float_matches_reference_on_every_kind_of_double():
    for x in random_doubles().tolist():
        assert csvio.format_float(x) == ref_format_float(x), repr(x)
    assert csvio.format_float(np.float64(-0.0)) == "-0"
    assert csvio.format_float(np.float32(0.1)) == ref_format_float(np.float32(0.1))


def test_valued_path_with_blank_tail_matches_reference():
    p = BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=0.4, rent=1.0)
    path = simulate_from_price(p, 5.0, 60)
    report = fundamental_value(path, 20)
    columns = ("t", "P", "D", "R", "W", "K", "phi", "price_rent", "yield",
               "V", "bubble")
    text = csvio.emit_csv(path, columns, report)
    assert text == ref_emit_csv(path, columns, report)
    last = text.splitlines()[-1].split(",")
    assert last[-2:] == ["", ""] and last[1] != ""
    # column order follows the request, not PATH_COLUMNS
    assert csvio.emit_csv(path, ("bubble", "t", "P"), report) == ref_emit_csv(
        path, ("bubble", "t", "P"), report
    )


def test_special_float_cells_match_reference():
    price = random_doubles(400)
    dividend = np.roll(price, 3)
    columns = ("t", "P", "D", "R", "price_rent", "yield")
    with np.errstate(all="ignore"):
        path = EquilibriumPath(price, dividend, gross_rates(price, dividend))
        text = csvio.emit_csv(path, columns)
        assert text == ref_emit_csv(path, columns)
    first = [line.split(",")[1] for line in text.splitlines()[1:9]]
    assert first == ["nan", "nan", "inf", "-inf", "0", "-0",
                     "4.94065645841e-324", "-4.94065645841e-324"]


def test_path_column_errors():
    path = EquilibriumPath([1.0, 2.0], [0.0, 0.0], [2.0, math.nan])
    with pytest.raises(ValueError, match="at least one column"):
        csvio.emit_csv(path, ())
    with pytest.raises(ValueError, match="not defined"):
        csvio.emit_csv(path, ("t", "W"))
    with pytest.raises(ValueError, match="requires a valuation"):
        csvio.emit_csv(path, ("t", "V"))
    with pytest.raises(ValueError, match="unknown column"):
        csvio.emit_csv(path, ("t", "price"))


def test_table_float_columns_match_reference():
    values = random_doubles(500).tolist()
    table_csv(["x", "y"], [values, values[::-1]])
    # np.float64 is a float; np.float32 and ints take the per-cell rule
    with np.errstate(over="ignore"):
        f32 = [np.float32(v) for v in values[:50]]
    table_csv(
        ["f64", "f32", "int"],
        [[np.float64(v) for v in values[:50]], f32, list(range(50))],
    )


def test_table_bool_and_mixed_columns_match_reference():
    text = table_csv(
        ["a", "has_bubble", "k_bubbly", "crowding"],
        [
            [0.1, 0.2, 0.3, 0.4],
            [True, False, np.bool_(True), False],
            [1.5, math.nan, np.float64(-0.0), "none"],
            ["in", "none", "out", 3],
        ],
    )
    assert text.splitlines()[1:3] == ["0.1,true,1.5,in", "0.2,false,nan,none"]


def test_table_quotes_text_cells_and_header():
    text = table_csv(
        ["key, with comma", 'say "hi"', "two\nlines", "plain"],
        [
            ["a,b", "c"],
            ['q"uote', "r"],
            ["line\nbreak", "cr\r"],
            [1.0, 2.0],
        ],
    )
    assert text.startswith('"key, with comma","say ""hi""","two\nlines",plain\n')
    assert '"a,b","q""uote","line\nbreak",1\n' in text


def test_text_cells_keep_nul_bytes_and_non_ascii_text():
    # the block writer drops NUL bytes, so a NUL inside a text cell has to
    # come through some other way; 0xFF stands in for it, which UTF-8 never uses
    texts = ["a\0b", "\0", "été", "日本,語", "\udcff", "ÿ"]
    text = table_csv(["s", "x"], [texts, [1.5] * len(texts)])
    assert text.splitlines()[1:5] == ["a\0b,1.5", "\0,1.5", "été,1.5", '"日本,語",1.5']
    # a text array keeps inner NULs (numpy drops trailing ones on its own)
    assert table_csv(["s"], [np.array(texts)]).startswith("s\na\0b\n\n")


def test_empty_table_is_header_only():
    assert table_csv(["x", "y"], [[], []]) == "x,y\n"


# --- runs of equal neighbours ---------------------------------------------------

# SPECIAL as bit patterns, plus NaNs with other payloads and signs (the last
# one signalling), which ``==`` cannot tell apart from each other or from nan
NAN_PAYLOADS = [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000001,
                0x7FF0000000000001]
SPECIAL_BITS = np.concatenate(
    [np.array(SPECIAL).view(np.uint64), np.array(NAN_PAYLOADS, dtype=np.uint64)]
)


def ref_cells(arr: np.ndarray) -> list[str]:
    return [ref_format_float(x) for x in arr.tolist()]


def cell_texts(rows: np.ndarray) -> list[str]:
    """The text of every cell of a matrix of byte rows, NUL bytes dropped."""
    return [bytes(row).translate(None, b"\0").decode() for row in rows]


def kernel_cells(arr: np.ndarray) -> list[str]:
    """The vectorised kernel's text of every value of a float64 array."""
    return cell_texts(csvio._g12_lanes(arr).view(np.uint8))


def run_cells(*columns: np.ndarray) -> list[list[str]]:
    """The text of every cell of float64 columns formatted together, each
    run of equal bit patterns once."""
    return [cell_texts(rows) for rows in csvio._float_lanes(list(columns))]


def floats_from_bits(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, SPECIAL_BITS.size - 1), st.integers(1, 6)),
        max_size=40,
    ),
    step=st.integers(1, 3),
)
def test_float_cells_match_reference_on_runs_of_special_values(runs, step):
    picks = np.array([i for i, k in runs for _ in range(k)], dtype=np.intp)
    arr = SPECIAL_BITS[picks].view(np.float64)
    assert kernel_cells(arr) == ref_cells(arr)
    assert kernel_cells(arr[::step]) == ref_cells(arr[::step])
    # runs never cross from one column into the next
    assert run_cells(arr, arr[::step], arr[::-1]) == [
        ref_cells(arr), ref_cells(arr[::step]), ref_cells(arr[::-1])
    ]
    assert table_csv(["x"], [arr.tolist()]).split("\n")[1:-1] == ref_cells(arr)


def test_float_cells_keep_bit_patterns_apart():
    zeros = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
    assert kernel_cells(zeros) == ["0", "-0", "-0", "0", "0", "-0"]
    assert run_cells(zeros) == [["0", "-0", "-0", "0", "0", "-0"]]
    nans = floats_from_bits(0x7FF8000000000000, 0x7FF8000000000001,
                            0x7FF8000000000001, 0xFFF8000000000000,
                            0x7FF0000000000001)
    assert kernel_cells(nans) == ["nan"] * 5 == ref_cells(nans)
    assert run_cells(nans) == [["nan"] * 5]
    edges = np.array([math.inf, math.inf, -math.inf, 5e-324, 5e-324, -5e-324,
                      2.2250738585072014e-308, 1e-310, 1e-310, 0.1])
    assert kernel_cells(edges) == ref_cells(edges)
    assert run_cells(edges, edges[:0], edges) == [ref_cells(edges), [], ref_cells(edges)]
    assert kernel_cells(np.array([])) == [] and run_cells(np.array([])) == [[]]
    assert kernel_cells(np.array([-0.0])) == ["-0"]
    assert kernel_cells(np.array([math.nan])) == ["nan"]


def test_float_cells_on_strided_views():
    arr = np.repeat(np.array([1.5, -0.0, 0.0, math.nan, 1.5, 2.0]), 3)
    for view in (arr[::2], arr[1::3], arr[::-1], arr[::-4]):
        assert not view.flags.c_contiguous
        assert kernel_cells(view) == ref_cells(view)
        assert run_cells(view) == [ref_cells(view)]
    grid = np.arange(12.0).reshape(3, 4) // 3
    assert kernel_cells(grid[:, 1]) == ref_cells(grid[:, 1])


def test_path_with_constant_columns_matches_reference():
    """Land paths at full investment: rent constant, phi = pi, a steady
    path constant in every column; V stops short of the path's end."""
    bubbly = BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=0.7, rent=1.0)
    balanced = BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=0.4, rent=1.0)
    columns = ("t", "P", "D", "R", "W", "K", "phi", "price_rent", "yield",
               "V", "bubble")
    bubbly_path = simulate_timevarying(bubbly, 20.0, 300).path
    for path in (bubbly_path, steady_path(balanced, 300)):
        assert np.all(path.dividend == 1.0) and np.all(path.phi == path.phi[0])
        report = fundamental_value(path, 120)
        assert report.fundamental.size < len(path)
        text = csvio.emit_csv(path, columns, report)
        assert text == ref_emit_csv(path, columns, report)


def test_path_with_runs_of_signed_zeros_and_nans_matches_reference():
    price = np.repeat([2.0, 0.0, -0.0, 0.0, math.nan, math.inf, 2.0], 4)
    price[8:12] = floats_from_bits(0x7FF8000000000001, 0x7FF8000000000001,
                                   0xFFF8000000000000, 0x7FF8000000000000)
    dividend = np.repeat([1.0, -0.0], price.size // 2 + 1)[: price.size]
    with np.errstate(all="ignore"):
        path = EquilibriumPath(price, dividend, gross_rates(price, dividend))
        columns = ("t", "P", "D", "R", "price_rent", "yield")
        assert csvio.emit_csv(path, columns) == ref_emit_csv(path, columns)


def test_table_float_array_columns_with_runs_match_reference():
    steps = np.repeat(np.array([0.1, 0.1, -0.0, 0.0, math.nan, math.inf, 1e-310]), 5)
    grid = np.linspace(0.0, 1.0, steps.size)
    flags = np.arange(steps.size) % 7 < 3
    header = ["x", "steady_price", "has_bubble"]
    got = csvio.emit_table_csv(header, [grid, steps, flags])
    rows = zip(grid.tolist(), steps.tolist(), flags.tolist())
    assert got == ref_emit_table_csv(header, [list(r) for r in rows])
    # float32 and strided float64 array columns, cells as numpy scalars
    table_csv(["a", "b"], [steps[::-1], steps.astype(np.float32)])
