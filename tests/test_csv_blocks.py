"""CSV output written in blocks of rows.

A file is formatted and written ``csvio.BLOCK_ROWS`` rows at a time. Its
bytes must not depend on where the block edges fall: runs of equal cells,
signed zeros, NaN payloads, quoted text and the blank tail of the ``V`` and
``bubble`` columns all cross an edge here and are checked against the
per-cell reference emitters. Writing to a file gives the text the ``emit_*``
functions return, a failure mid-file leaves nothing behind, and the memory a
write takes does not grow with the file."""

import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import EquilibriumPath, csvio, gross_rates, parse_scenarios, run_scenario
from bubblelab import fundamental_value, load_scenarios, scenarios
from tests.test_csvio import NAN_PAYLOADS, ref_emit_csv, ref_emit_table_csv

B = csvio.BLOCK_ROWS
FIGURES = Path(__file__).resolve().parent.parent / "scenarios" / "figures.ini"
LENGTHS = (1, B - 1, B, B + 1, 2 * B + 1)
# where a run, a text or the end of V sits: just before, at and after an edge
EDGES = (B - 1, B, B + 1)


def runs_across_edges(n: int) -> np.ndarray:
    """Floats in runs of 1 to 5 cells, with a run of signed zeros, one of
    NaN payloads and one of infinities spanning each block edge."""
    values = np.array([0.5, -0.0, 0.0, math.nan, math.inf, 1.0 / 3.0, 1e-310])
    lengths = np.arange(values.size) % 5 + 1
    pattern = np.repeat(values, lengths)
    arr = np.resize(pattern, n)
    nans = np.array(NAN_PAYLOADS, dtype=np.uint64).view(np.float64)
    for edge in range(B, n, B):
        arr[edge - 3 : edge + 3] = -0.0
        arr[edge - 1 : edge + 1] = nans[:2]
        arr[edge + 3 : edge + 6] = -math.inf
    return arr


def texts_across_edges(n: int) -> np.ndarray:
    """Text cells in runs, some of them needing quotes, one spanning each
    block edge."""
    words = np.array(["in", 'say "hi"', "a,b", "none", "two\nlines"])
    arr = np.resize(np.repeat(words, 3), n)
    for edge in range(B, n, B):
        arr[edge - 2 : edge + 2] = "a,b"
    return arr


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first line that differs (a diff of
    two files of thousands of lines would take minutes)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]), None)
        if i is None:
            i = min(len(g), len(w))
        pytest.fail(f"line {i}: {g[i:i + 1]} != {w[i:i + 1]}; {len(g)} and {len(w)} lines")


def report_ending_at(m: int, price: np.ndarray) -> SimpleNamespace:
    """A valuation whose V and bubble columns stop after m cells."""
    return SimpleNamespace(fundamental=price[:m] * 0.5, bubble_component=-price[:m])


@pytest.mark.parametrize("n", LENGTHS)
def test_path_blocks_match_reference(n):
    price = runs_across_edges(n)
    dividend = np.roll(price, 2)
    with np.errstate(all="ignore"):
        path = EquilibriumPath(price, dividend, gross_rates(price, dividend))
        columns = ("t", "P", "D", "R", "price_rent", "V", "bubble")
        for m in sorted({min(m, n) for m in (0, n - 1, n, *EDGES)}):
            report = report_ending_at(m, price)
            assert_same_text(
                csvio.emit_csv(path, columns, report), ref_emit_csv(path, columns, report)
            )


def run_free(n: int, scale: float) -> np.ndarray:
    """Floats of which no two neighbours are equal."""
    return scale * (1.0 + np.arange(n) / 7.0) ** 1.5


@pytest.mark.parametrize("n", (B - 1, 2 * B + 1))
def test_run_free_columns_beside_columns_with_runs_match_reference(n):
    """Each block mixes float columns without repeated neighbours, which
    keep the kernel's rows, with columns whose runs are expanded."""
    price = run_free(n, 2.0)
    wealth = run_free(n, 5.0)
    wealth[n // 2 :] = math.nan                      # a NaN tail
    nans = np.array(NAN_PAYLOADS, dtype=np.uint64).view(np.float64)
    wealth[n // 2 : n // 2 + 8] = np.repeat(nans[:4], 2)   # NaN payloads apart
    capital = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)   # run-free by bits only
    phi = run_free(n, 0.01)
    for edge in range(B, n, B):
        phi[edge - 3 : edge + 3] = 0.25              # a run across a block edge
    path = EquilibriumPath(price, np.full(n, 1.0), wealth=wealth, capital=capital, phi=phi)
    columns = ("t", "P", "D", "R", "W", "K", "phi", "yield", "V", "bubble")
    for m in sorted({min(m, n) for m in (0, n - 1, n, *EDGES)}):
        report = SimpleNamespace(fundamental=run_free(m, 3.0), bubble_component=price[:m] * 0)
        assert_same_text(
            csvio.emit_csv(path, columns, report), ref_emit_csv(path, columns, report)
        )


@pytest.mark.parametrize("n", LENGTHS)
def test_table_blocks_match_reference(n):
    floats = runs_across_edges(n)
    flags = (np.arange(n) // 3) % 2 == 0
    flags[B - 2 : B + 2] = True
    texts = texts_across_edges(n)
    mixed = [1.5 if k % B else "none" for k in range(n)]
    header = ["x", "flag", "text", "as list", "mixed"]
    got = csvio.emit_table_csv(header, [floats, flags, texts, floats.tolist(), mixed])
    rows = zip(floats.tolist(), flags.tolist(), texts.tolist(), floats.tolist(), mixed)
    assert_same_text(got, ref_emit_table_csv(header, [list(r) for r in rows]))


def test_string_and_bool_arrays_on_strided_views():
    texts = texts_across_edges(40)
    flags = np.arange(40) % 5 < 2
    for view in (np.s_[::2], np.s_[::-3], np.s_[5:6]):
        got = csvio.emit_table_csv(["a", "b"], [texts[view], flags[view]])
        rows = zip(texts[view].tolist(), flags[view].tolist())
        assert got == ref_emit_table_csv(["a", "b"], [list(r) for r in rows])
    assert csvio.emit_table_csv(["a"], [np.array([], dtype=str)]) == "a\n"


def test_valuation_columns_alone_keep_one_row_per_period(tmp_path):
    # the row count is the path's length, not the longest column's: V and
    # bubble stop n - T rows in, and every later period is a blank row
    sc = parse_scenarios(
        "[p]\nmodel = barebones\npi = 0.1\nbeta = 0.95\ndelta = 0.08\n"
        "productivity = 0.4\nrent = 1.0\np0 = 5.0\nhorizon = 40\n"
        "truncation = 20\ncolumns = V, bubble\n",
        source="v.ini",
    )[0]
    run_scenario(sc, tmp_path)
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "V,bubble" and len(lines) == 1 + 41
    assert all(line != "," for line in lines[1:22])
    assert lines[22:] == [","] * 20


@pytest.mark.parametrize("lengths", [(3, 2, 5), (B + 5, B + 2, 2 * B)])
def test_table_stops_at_its_shortest_column(lengths):
    columns = [np.arange(k, dtype=float) for k in lengths]
    got = csvio.emit_table_csv(["a", "b", "c"], columns)
    rows = zip(*(c.tolist() for c in columns))
    assert got == ref_emit_table_csv(["a", "b", "c"], [list(r) for r in rows])
    assert got.count("\n") == 1 + min(lengths)


def test_t_column_is_the_periods_and_integers_write_plainly():
    price = np.linspace(1.0, 2.0, B + 3)
    path = EquilibriumPath(price, np.ones_like(price))
    assert np.array_equal(csvio.column_array(path, "t"), np.arange(B + 3))
    assert_same_text(csvio.emit_csv(path, ("t",)), "t\n" + "".join(f"{t}\n" for t in range(B + 3)))
    signed = np.array([0, -3, 10**12, 7], dtype=np.int64)
    unsigned = np.array([0, 255, 9, 9], dtype=np.uint8)
    got = csvio.emit_table_csv(["i", "u"], [signed, unsigned])
    assert got == "i,u\n0,0\n-3,255\n1000000000000,9\n7,9\n"


def test_object_array_column_is_formatted_cell_by_cell():
    mixed = np.array([1.5, True, "a,b", None, 2, -0.0], dtype=object)
    floats = np.array([0.1, -0.0, math.nan], dtype=object)
    got = csvio.emit_table_csv(["m"], [mixed])
    assert got == ref_emit_table_csv(["m"], [[v] for v in mixed.tolist()])
    assert got == 'm\n1.5\ntrue\n"a,b"\nNone\n2\n-0\n'
    assert csvio.emit_table_csv(["f"], [floats]) == "f\n0.1\n-0\nnan\n"


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    points=st.sampled_from((2, *EDGES, 2 * B, 2 * B + 1)),
    horizon=st.sampled_from((*EDGES, 2 * B - 1, 2 * B)),
    truncation=st.integers(10, B + 2),
)
def test_run_writes_what_emit_returns(tmp_path_factory, points, horizon, truncation):
    out = tmp_path_factory.mktemp("run")
    sweep, path_sc = parse_scenarios(
        f"[g]\nmodel = barebones\nsweep = productivity\n"
        f"values = linspace(0.0, 1.0, {points})\nstats = regime, has_bubble, "
        "steady_price, steady_rate\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
        f"\n[p]\nmodel = barebones\npi = 0.1\nbeta = 0.95\ndelta = 0.08\n"
        f"productivity = 0.4\nrent = 1.0\np0 = 5.0\nhorizon = {horizon}\n"
        f"truncation = {min(truncation, horizon)}\n",
        source="blocks.ini",
    )
    run_scenario(sweep, out)
    values, stats = scenarios.run_sweep_values(sweep)
    want = csvio.emit_table_csv(
        ["productivity", *sweep.stats], [values, *(stats[s] for s in sweep.stats)]
    )
    assert_same_text((out / "g_sweep.csv").read_text(), want)

    run_scenario(path_sc, out)
    spec = scenarios.MODELS["barebones"]
    output = spec.run(spec.params(path_sc.options), path_sc.options)
    report = fundamental_value(output.path, path_sc.options["truncation"])
    columns = spec.columns + ("V", "bubble")
    want = csvio.emit_csv(output.path, columns, report)
    assert_same_text((out / "p.csv").read_text(), want)


def fig1_low():
    return next(s for s in load_scenarios(FIGURES) if s.name == "fig1_low")


def test_a_run_builds_each_written_column_once(tmp_path, monkeypatch):
    built, column_array = [], csvio.column_array

    def counted(path, name, report=None):
        built.append(name)
        return column_array(path, name, report)

    monkeypatch.setattr(csvio, "column_array", counted)
    run_scenario(fig1_low(), tmp_path)
    header = (tmp_path / "fig1_low.csv").read_text().split("\n", 1)[0].split(",")
    assert built == header and len(built) == 8


def test_a_run_writes_the_arrays_it_checks(tmp_path, monkeypatch):
    checked, written = [], []
    check_finite, write_csv = scenarios._check_finite, csvio.write_csv

    def check(sc, path, columns, arrays):
        checked.extend(arrays)
        check_finite(sc, path, columns, arrays)

    def write(out, header, columns, rows):
        written.extend(columns)
        write_csv(out, header, columns, rows)

    monkeypatch.setattr(scenarios, "_check_finite", check)
    monkeypatch.setattr(csvio, "write_csv", write)
    run_scenario(fig1_low(), tmp_path)
    assert len(checked) == len(written) == 8
    assert all(a is b for a, b in zip(checked, written))


@pytest.mark.parametrize("existing", [None, "old contents\n"])
def test_failure_in_a_later_block_leaves_no_file(tmp_path, monkeypatch, existing):
    target = tmp_path / "g_sweep.csv"
    if existing is not None:
        target.write_text(existing)
    block_cells = csvio._block_cells
    blocks = []

    def failing(columns, start, stop):
        blocks.append(stop - start)
        if len(blocks) > 1:   # the second block
            # the first block is already in the temporary file
            assert [f.name for f in tmp_path.iterdir() if f.suffix == ".tmp"]
            raise RuntimeError("formatter failed")
        return block_cells(columns, start, stop)

    monkeypatch.setattr(csvio, "_block_cells", failing)
    sc = parse_scenarios(
        f"[g]\nmodel = barebones\nsweep = productivity\n"
        f"values = linspace(0.1, 0.9, {B + 1})\nstats = regime, has_bubble, "
        "steady_price\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n",
        source="fail.ini",
    )[0]
    with pytest.raises(RuntimeError, match="formatter failed"):
        run_scenario(sc, tmp_path)
    assert blocks == [B, 1]
    left = sorted(f.name for f in tmp_path.iterdir())
    assert left == ([] if existing is None else ["g_sweep.csv"])
    if existing is not None:
        assert target.read_text() == existing


def traced_peak(tmp_path, rows: int) -> int:
    columns = [
        np.linspace(0.0, 1.0, rows),
        np.arange(rows) % 3 == 0,
        np.resize(np.array(["in", "none", "out"]), rows),
    ]
    tracemalloc.start()
    try:
        scenarios._write(
            tmp_path / f"t{rows}.csv",
            lambda fh: csvio.write_csv(fh, ["x", "flag", "text"], columns, rows),
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_of_a_written_table_does_not_grow_with_its_rows(tmp_path):
    small = traced_peak(tmp_path, 20_000)
    large = traced_peak(tmp_path, 80_000)
    assert large < 1.5 * small, (small, large)
