"""Scenario file parsing, schema validation, runners, CSV output, and the
command line entry point."""

import tracemalloc
import typing

import numpy as np
import pytest

from bubblelab import (
    GeometricSeq,
    PolynomialSeq,
    RunError,
    ScenarioError,
    list_models,
    load_scenarios,
    parse_scenarios,
    run_scenario,
    run_sweep_values,
    serialize_scenario,
)
from bubblelab import scenarios
from bubblelab.cli import main
from tests.test_barebones import RHO_HIGH, SS_RATE

BB_KEYS = """\
pi = 0.1
beta = 0.95
delta = 0.08
productivity = {a}
rent = 1.0
"""


def bb_text(name: str, a: float, extra: str = "") -> str:
    return f"[{name}]\nmodel = barebones\n" + BB_KEYS.format(a=a) + extra


def one(text: str):
    scs = parse_scenarios(text, source="test.ini")
    assert len(scs) == 1
    return scs[0]


def err(text: str) -> str:
    with pytest.raises(ScenarioError) as exc:
        parse_scenarios(text, source="test.ini")
    return str(exc.value)


# --- parsing ----------------------------------------------------------------


def test_parse_basic_section():
    sc = one(bb_text("base", 0.4, "horizon = 40\np0 = 5.0\n"))
    assert sc.name == "base"
    assert sc.model == "barebones"
    assert not sc.is_sweep
    assert sc.options["productivity"] == 0.4
    assert sc.options["horizon"] == 40
    assert sc.options["p0"] == 5.0
    # schema defaults fill in
    assert sc.options["land_supply"] == 1.0
    assert sc.options["require_feasible"] is False
    assert sc.columns is None


def test_parse_comments_and_blank_lines():
    text = (
        "# leading comment\n\n[s]\n; another comment\nmodel = samuelson\n"
        "beta = 0.5\n\nyoung_endow = 3\nold_endow = 1\n"
    )
    sc = one(text)
    assert sc.options["young_endow"] == 3.0
    assert sc.options["horizon"] == 200  # default


def test_structure_errors_carry_line_numbers():
    assert "test.ini:3" in err("[a]\nmodel = samuelson\nbeta 0.5\n")
    assert "outside any" in err("beta = 0.5\n[a]\nmodel = samuelson\n")
    assert "malformed" in err("[a\nmodel = samuelson\n")
    assert "empty section" in err("[ ]\nmodel = samuelson\n")
    assert "duplicate scenario" in err(bb_text("a", 0.4) + bb_text("a", 0.7))
    msg = err("[a]\nmodel = samuelson\nbeta = 0.5\nbeta = 0.6\n")
    assert "duplicate key" in msg and "test.ini:4" in msg
    with pytest.raises(ScenarioError, match="no scenarios"):
        parse_scenarios("# nothing here\n")


def test_value_conversion_errors():
    assert "number" in err(bb_text("a", 0.4).replace("0.95", "fast"))
    assert "integer" in err(bb_text("a", 0.4, "horizon = 4.5\n"))
    assert "true or false" in err(bb_text("a", 0.4, "require_feasible = maybe\n"))
    # non-finite numbers are rejected where they are written
    msg = err(bb_text("a", 0.4).replace("0.95", "nan"))
    assert "finite" in msg and "test.ini:4" in msg and "beta" in msg
    msg = err(bb_text("a", 0.4, "p0 = -inf\n"))
    assert "finite" in msg and "test.ini:8" in msg and "p0" in msg
    assert "finite" in err(
        "[s]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\nold_endow = inf\n"
    )
    assert "finite" in err(
        "[c]\nmodel = barebones_construct\n" + BB_KEYS.format(a=0.4) + "k0 = inf\n"
    )
    assert "finite" in err(
        "[w]\nmodel = wilson\nbeta = 0.6\n"
        "young_endow = geometric(1.0, inf)\ndividend = [0.1, nan]\n"
    )
    assert "finite" in err(
        "[g]\nmodel = barebones\nsweep = productivity\nvalues = [0.1, inf]\n"
        "stats = regime\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )


def test_schema_errors():
    assert "missing the model" in err("[a]\nbeta = 0.5\n")
    assert "unknown model" in err("[a]\nmodel = dsge\n")
    msg = err(bb_text("a", 0.4, "color = blue\n"))
    assert "unknown key" in msg and "color" in msg and "test.ini:8" in msg
    assert "missing" in err("[a]\nmodel = barebones\npi = 0.1\n")
    assert "only valid in sweep" in err(bb_text("a", 0.4, "stats = regime\n"))


def test_column_validation():
    sc = one(bb_text("a", 0.4, "columns = t, P, R\n"))
    assert sc.columns == ("t", "P", "R")
    assert "unknown column" in err(bb_text("a", 0.4, "columns = t, price\n"))
    assert "truncation" in err(bb_text("a", 0.4, "columns = t, P, V\n"))
    # with a truncation the valuation columns are allowed
    sc = one(bb_text("a", 0.4, "truncation = 40\ncolumns = t, P, V, bubble\n"))
    assert sc.columns == ("t", "P", "V", "bubble")
    assert "produces no path" in err(
        "[a]\nmodel = tirole\nbeta = 0.95\nalpha = 0.33\ndelta = 0.6\n"
        "tfp = 1.0\ncolumns = t, P\n"
    )
    # each model's spec names the columns its path can write
    weil = (
        "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.9\ncolumns = t, {}\n"
    )
    assert one(weil.format("price_rent")).columns == ("t", "price_rent")
    msg = err(weil.format("W"))
    assert "does not write column 'W'" in msg and "test.ini:7" in msg
    switch = (
        "[s]\nmodel = barebones_switch\npi = 0.1\nbeta = 0.95\ndelta = 0.08\n"
        "rent = 1.0\nbase_productivity = 0.4\nshock_productivity = 0.7\n"
        "shock_on = 1\nshock_off = 11\ncolumns = t, {}\n"
    )
    assert one(switch.format("phi")).columns == ("t", "phi")
    assert "does not write column 'V'" in err(switch.format("V"))


def test_sequence_values():
    text = (
        "[w]\nmodel = wilson\nbeta = 0.6\n"
        "young_endow = geometric(1.0, 1.05)\ndividend = constant(0.1)\n"
    )
    sc = one(text)
    seq = sc.options["young_endow"]
    assert isinstance(seq, GeometricSeq)
    assert (seq.scale, seq.ratio) == (1.0, 1.05)
    d = sc.options["dividend"]
    assert isinstance(d, GeometricSeq) and d.ratio == 1.0

    sc = one(text.replace("constant(0.1)", "polynomial(2.0, -1.5)"))
    pol = sc.options["dividend"]
    assert isinstance(pol, PolynomialSeq)
    assert (pol.scale, pol.power) == (2.0, -1.5)

    # the Wilson bubble test needs 100 entries of an explicit list
    entries = [0.1, 0.2, 0.3] + [0.4] * 97
    sc = one(text.replace("constant(0.1)", str(entries)))
    assert sc.options["dividend"].entries == tuple(entries)

    assert "sequence" in err(text.replace("constant(0.1)", "spline(1, 2)"))
    assert "argument" in err(text.replace("constant(0.1)", "geometric(1)"))


def test_sweep_parsing():
    text = (
        "[grid]\nmodel = barebones\nsweep = productivity\n"
        "values = linspace(0.0, 1.0, 5)\nstats = longrun_rate, regime\n"
        "pi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    sc = one(text)
    assert sc.is_sweep
    assert sc.sweep == "productivity"
    assert sc.stats == ("longrun_rate", "regime")
    assert np.allclose(sc.sweep_values, np.linspace(0.0, 1.0, 5))
    lst = one(text.replace("linspace(0.0, 1.0, 5)", "[0.1, 0.4]"))
    assert lst.sweep_values.tolist() == [0.1, 0.4]


LAND_KEYS = dict(pi=0.1, beta=0.95, delta=0.08, productivity=0.4, rent=1.0)


def linspace_section(grid: str, key: str = "productivity") -> str:
    keys = "".join(f"{k} = {v}\n" for k, v in LAND_KEYS.items() if k != key)
    return (
        f"[grid]\nmodel = barebones\nsweep = {key}\nvalues = linspace({grid})\n"
        f"stats = longrun_rate\n{keys}"
    )


def test_a_linspace_grid_is_one_read_only_float64_array():
    sc = one(linspace_section("0.1, 0.9, 7"))
    want = np.linspace(0.1, 0.9, 7)
    assert sc.sweep_values.dtype == np.float64
    assert not sc.sweep_values.flags.writeable
    assert sc.sweep_values.tobytes() == want.tobytes()
    values, _ = run_sweep_values(sc)
    assert values is sc.sweep_values
    # equality stays a bool that compares grids by value
    assert (sc == sc._replace(sweep_values=tuple(want.tolist()))) is True
    assert (sc != sc._replace(sweep_values=want[::-1])) is True


def test_a_linspace_grid_serializes_as_python_floats():
    sc = one(linspace_section("0.1, 0.9, 7"))
    assert serialize_scenario(sc) == (
        "[grid]\nmodel = barebones\nsweep = productivity\nvalues = [0.1, "
        "0.23333333333333334, 0.3666666666666667, 0.5, 0.6333333333333333, "
        "0.7666666666666666, 0.9]\nstats = longrun_rate\npi = 0.1\nbeta = 0.95\n"
        "delta = 0.08\nrent = 1.0\nland_supply = 1.0\n"
    )
    assert one(serialize_scenario(sc)) == sc


def test_a_failing_linspace_point_is_named_as_a_python_float():
    # beta must lie in (0, 1); the grid is 0.4, 0.625, 0.8500000000000001,
    # 1.0750000000000002, 1.3
    sc = one(linspace_section("0.4, 1.3, 5", key="beta"))
    with pytest.raises(RunError) as exc:
        run_sweep_values(sc)
    assert str(exc.value) == (
        "sweep [grid] at beta = 1.0750000000000002: "
        "beta must lie in (0,1), got 1.0750000000000002"
    )


def test_a_parsed_linspace_grid_holds_eight_bytes_a_point():
    text = linspace_section("0.0, 1.0, 200000")
    one(text)   # every module and cache the parser uses is loaded
    tracemalloc.start()
    try:
        sc = one(text)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sc.sweep_values.size == 200_000
    assert held < 2_000_000


def test_sweep_errors():
    good = (
        "[g]\nmodel = barebones\nsweep = productivity\nvalues = [0.1]\n"
        "stats = regime\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    one(good)  # sanity
    assert "does not support sweeps" in err(good.replace("barebones", "weil"))
    assert "cannot sweep" in err(good.replace("sweep = productivity",
                                              "sweep = horizon"))
    assert "needs a values key" in err(good.replace("values = [0.1]\n", ""))
    assert "needs a stats key" in err(good.replace("stats = regime\n", ""))
    assert "unknown statistic" in err(good.replace("stats = regime",
                                                   "stats = velocity"))
    assert "only model parameters" in err(good + "horizon = 50\n")
    assert "missing required key" in err(good.replace("rent = 1.0\n", ""))


def test_converter_annotations_resolve():
    hints = typing.get_type_hints(scenarios._sequence)
    assert hints["return"] is scenarios.Sequence


def test_serialize_round_trip():
    texts = [
        bb_text("a", 0.4, "truncation = 40\ncolumns = t, P, V\nhorizon = 99\n"),
        "[w]\nmodel = wilson\nbeta = 0.6\n"
        f"young_endow = geometric(1.0, 1.05)\ndividend = {[0.1, 0.2] * 50}\n",
        "[g]\nmodel = barebones\nsweep = productivity\nvalues = [0.1, 0.7]\n"
        "stats = regime, longrun_rate\npi = 0.1\nbeta = 0.95\ndelta = 0.08\n"
        "rent = 1.0\n",
    ]
    for text in texts:
        sc = one(text)
        again = one(serialize_scenario(sc))
        assert again == sc


# --- runners and output files ----------------------------------------------


def test_run_samuelson_outputs(tmp_path):
    sc = one(
        "[sam]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\n"
        "old_endow = 1\nhorizon = 20\n"
    )
    res = run_scenario(sc, tmp_path)
    csv = tmp_path / "sam.csv"
    summary = tmp_path / "sam_summary.txt"
    assert res.files == [csv, summary]
    raw = csv.read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == "t,P,D,R"
    assert len(lines) == 23 and lines[-1] == ""  # header + 21 rows + final LF
    assert "\r" not in raw
    # started at the stationary price by default: P constant at 1
    assert lines[1].startswith("0,1,0,1")
    assert res.summary["stationary_price"] == 1.0
    assert res.summary["p0"] == 1.0
    stxt = summary.read_text()
    assert "model = samuelson" in stxt
    assert "has_bubbly = true" in stxt


def test_run_tirole_summary_only(tmp_path):
    sc = one(
        "[t]\nmodel = tirole\nbeta = 0.95\nalpha = 0.33333333333333331\n"
        "delta = 0.6\ntfp = 1.0\n"
    )
    res = run_scenario(sc, tmp_path)
    assert res.files == [tmp_path / "t_summary.txt"]
    assert res.summary["crowding"] == "out"
    assert "k_bubbly" in res.summary
    assert res.summary["savings_residual"] < 1e-12


def test_run_tirole_without_bubbly_steady_state(tmp_path):
    # the bubble margin is below 1: only the fundamental steady state exists,
    # so there is no bubbly savings identity to check
    sc = one("[t]\nmodel = tirole\nbeta = 0.9\nalpha = 0.5\ndelta = 0.5\ntfp = 1\n")
    res = run_scenario(sc, tmp_path)
    assert res.summary == {
        "model": "tirole",
        "k_fundamental": pytest.approx(0.2025, rel=1e-12),
        "r_fundamental": pytest.approx(1.61111111111, rel=1e-10),
        "crowding": "none",
    }


def test_run_tirole_crowdin_with_a_crossover_below_one_millionth(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text(
        "[c]\nmodel = tirole_crowdin\nbeta = 0.95\nalpha = 0.1\ndelta = 0.6\n"
        "tfp = 1.0\nentrepreneur_prob = 0.5\n"
    )
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 0
    summary = (tmp_path / "o" / "c_summary.txt").read_text().splitlines()
    assert "crowding = out" in summary
    assert "crossover_prob = 7.92184514959e-08" in summary


def test_run_tirole_crowdin_fails_when_the_crossover_underflows(tmp_path, capsys):
    # margin 113.43 at alpha 0.005: pi* = e^-946 is below every double
    ini = tmp_path / "c.ini"
    ini.write_text(
        "[c]\nmodel = tirole_crowdin\nbeta = 0.95\nalpha = 0.005\ndelta = 0.6\n"
        "tfp = 1.0\nentrepreneur_prob = 0.5\n"
    )
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert "is below the normal doubles" in capsys.readouterr().err
    assert not (tmp_path / "o" / "c_summary.txt").exists()


def test_run_bewley_reports_nonexistence(tmp_path):
    sc = one(
        "[b]\nmodel = bewley\nbeta = 0.4\ngamma = 1.0\ngrowth = 1.0\n"
        "rich_endow = 2.0\npoor_endow = 1.0\n"
    )
    res = run_scenario(sc, tmp_path)
    assert res.files == [tmp_path / "b_summary.txt"]
    assert res.summary["exists"] is False
    assert "reason" in res.summary


def test_run_weil_without_bubble_raises(tmp_path):
    sc = one(
        "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.3\n"
    )
    with pytest.raises(RunError):
        run_scenario(sc, tmp_path)


def test_run_barebones_start_conflicts(tmp_path):
    # both starts is a parse error, before anything runs
    with pytest.raises(ScenarioError, match="not both"):
        one(bb_text("a", 0.4, "p0 = 5.0\nw0 = 30.0\n"))
    # bubbly region has no steady state to default to
    with pytest.raises(RunError, match="give p0 or w0"):
        run_scenario(one(bb_text("a", 0.7)), tmp_path)


def test_run_barebones_valuation_columns(tmp_path):
    sc = one(bb_text("v", 0.4, "p0 = 5.0\nhorizon = 400\ntruncation = 320\n"))
    res = run_scenario(sc, tmp_path)
    lines = (tmp_path / "v.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "P", "D", "R", "W", "K", "phi", "price_rent",
                      "V", "bubble"]
    assert len(lines) == 402
    first = lines[1].split(",")
    assert float(first[1]) == 5.0
    # V tracks P up to the truncation-error scale of the early window
    assert float(first[8]) == pytest.approx(5.0, abs=0.1)
    # V and bubble are only defined up to n - truncation
    assert lines[81].split(",")[8] != ""
    assert lines[82].split(",")[8] == ""
    assert lines[82].split(",")[9] == ""
    assert res.summary["valuation_verdict"] == "fundamental"
    assert res.summary["limit_rate"] == pytest.approx(SS_RATE, abs=1e-9)


SAMUELSON_PRICE_RENT = (
    "[pr]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
    "columns = t, P, price_rent\n"
)


# A long bubbly path overflows to inf inside the land-economy recurrence,
# without a numpy warning; the finite check refuses it. The time-varying
# path overflows at t = 1908, and the step into the overflow is not an
# arbitrage violation, so its run fails on the finite check, not at t = 1907.
TIMEVARYING_OVERFLOW = (
    "[tv]\nmodel = barebones_timevarying\npi = 0.5\nbeta = 0.95\ndelta = 0.1\n"
    "productivity = constant(0.7)\nrent = constant(1)\nw0 = 50\nhorizon = 20000\n"
)


@pytest.mark.filterwarnings("error")
def test_run_refuses_non_finite_paths(tmp_path):
    with pytest.raises(RunError) as exc:
        run_scenario(one(bb_text("big", 0.7, "p0 = 5\nhorizon = 20000\n")), tmp_path)
    assert "[big] column 'P' is inf at t = " in str(exc.value)
    with pytest.raises(RunError, match=r"\[tv\] column 'P' is inf at t = 1908;"):
        run_scenario(one(TIMEVARYING_OVERFLOW), tmp_path)
    # P/D of a zero-dividend asset is inf in every row
    with pytest.raises(RunError, match=r"\[pr\] column 'price_rent' is inf at t = 0"):
        run_scenario(one(SAMUELSON_PRICE_RENT), tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_run_writes_nan_after_weil_collapse(tmp_path):
    sc = one(
        "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.5\nseed = 1\nhorizon = 30\ncolumns = t, P, R, yield\n"
    )
    res = run_scenario(sc, tmp_path)
    c = res.summary["collapse_time"]
    assert 0 < c < 30
    rows = [ln.split(",") for ln in (tmp_path / "w.csv").read_text().splitlines()[1:]]
    assert rows[c - 1][2:] == ["0", "0"]  # the collapse return is a true zero
    assert all(r[1:] == ["0", "nan", "nan"] for r in rows[c:])


@pytest.mark.parametrize(
    "section, t",
    [
        (
            "model = wilson\nbeta = 0.6\nyoung_endow = geometric(1.0, 0.5)\n"
            "dividend = constant(0.0)\n",
            1075,
        ),
        (
            "model = bewley\nbeta = 0.9\ngamma = 1\ngrowth = 0.5\n"
            "rich_endow = 1\npoor_endow = 0.1\n",
            1074,
        ),
    ],
    ids=["wilson", "bewley"],
)
def test_price_underflow_outside_weil_is_refused(tmp_path, section, t):
    # a price that underflows to zero is no collapse: the nan returns it
    # gives stop the run, as they do at any t before the last
    sc = one(f"[y]\n{section}horizon = 1200\n")
    with pytest.raises(RunError, match=rf"\[y\] column 'R' is nan at t = {t};"):
        run_scenario(sc, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [None, "old contents\n"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, existing):
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_text(existing)

    class DiskFull:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, name, mode, newline):
            self.fh = open(name, mode, newline=newline)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(scenarios, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space"):
        scenarios._write(target, lambda fh: fh.write("t,P\n" * 1000))
    left = [f.name for f in tmp_path.iterdir()]
    assert left == ([] if existing is None else ["out.csv"])
    if existing is not None:
        assert target.read_text() == existing


def test_run_sweep_csv(tmp_path):
    sc = one(
        "[g]\nmodel = barebones\nsweep = productivity\n"
        "values = [0.1, 0.4, 0.7]\nstats = longrun_rate, regime, has_bubble\n"
        "pi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    res = run_scenario(sc, tmp_path)
    csv = tmp_path / "g_sweep.csv"
    assert res.files == [csv, tmp_path / "g_summary.txt"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "productivity,longrun_rate,regime,has_bubble"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[2] for r in rows] == [
        "land_only", "fundamental_balanced", "bubbly_unbalanced",
    ]
    assert [r[3] for r in rows] == ["false", "false", "true"]
    # CSV floats carry 12 significant digits
    assert float(rows[0][1]) == pytest.approx(20.0 / 19.0, rel=1e-11)
    assert float(rows[1][1]) == pytest.approx(SS_RATE, rel=1e-11)
    assert float(rows[2][1]) == pytest.approx(RHO_HIGH, rel=1e-11)
    assert res.summary["points"] == 3


def test_sweep_failure_names_scenario_and_point(tmp_path, capsys):
    text = (
        "[grid]\nmodel = barebones\nsweep = productivity\n"
        "values = [0.5, -0.1]\nstats = regime\n"
        "pi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    with pytest.raises(RunError) as exc:
        run_sweep_values(one(text))
    msg = str(exc.value)
    assert "[grid]" in msg and "productivity = -0.1" in msg
    assert "productivity must be nonnegative" in msg

    ini = tmp_path / "s.ini"
    ini.write_text(text)
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert "[grid] at productivity = -0.1" in capsys.readouterr().err


def test_run_sweep_values_in_memory():
    sc = one(
        "[g]\nmodel = barebones\nsweep = productivity\n"
        "values = [0.1, 0.4, 0.7]\nstats = longrun_rate, steady_price\n"
        "pi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    values, stats = run_sweep_values(sc)
    assert values.tolist() == [0.1, 0.4, 0.7]
    assert stats["longrun_rate"][1] == pytest.approx(SS_RATE, rel=1e-12)
    assert np.isnan(stats["steady_price"][2])  # no steady state when bubbly
    with pytest.raises(ValueError, match="not a sweep"):
        run_sweep_values(one(bb_text("a", 0.4)))


def test_horizon_and_seed_overrides(tmp_path):
    sc = one(bb_text("h", 0.4, "p0 = 5.0\nhorizon = 100\n"))
    run_scenario(sc, tmp_path, horizon=10)
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 12

    weil = one(
        "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.9\nseed = 0\nhorizon = 30\n"
    )
    res = run_scenario(weil, tmp_path, seed=5)
    assert res.summary["seed"] == 5


def test_overrides_skip_keys_the_model_lacks(tmp_path):
    # --seed on a model without a seed key and --horizon on one without a
    # horizon key write the same bytes as runs without them
    ini = tmp_path / "o.ini"
    ini.write_text(
        bb_text("bb", 0.4, "p0 = 5.0\nhorizon = 40\n")
        + "\n[tir]\nmodel = tirole\nbeta = 0.95\nalpha = 0.33333333333333331\n"
        "delta = 0.6\ntfp = 1.0\n"
    )
    for name, flag in (("bb", "--seed"), ("tir", "--horizon")):
        plain, flagged = tmp_path / f"{name}_plain", tmp_path / f"{name}_flagged"
        assert main(["run", str(ini), name, "--out-dir", str(plain)]) == 0
        assert main(["run", str(ini), name, "--out-dir", str(flagged), flag, "7"]) == 0
        files = sorted(f.name for f in plain.iterdir())
        assert files == sorted(f.name for f in flagged.iterdir())
        for f in files:
            assert (plain / f).read_bytes() == (flagged / f).read_bytes()


SHORT_SEQUENCES = [
    pytest.param(
        "[tv]\nmodel = barebones_timevarying\npi = 0.1\nbeta = 0.95\n"
        "delta = 0.08\nproductivity = {seq}\nrent = constant(1.0)\nw0 = 40.0\n",
        "productivity",
        "0.7",
        3,
        id="barebones_timevarying",
    ),
    # the Wilson bubble test needs 100 terms of an explicit sequence
    pytest.param(
        "[tv]\nmodel = wilson\nbeta = 0.6\nyoung_endow = {seq}\n"
        "dividend = constant(0.1)\n",
        "young_endow",
        "1.0",
        100,
        id="wilson",
    ),
]


@pytest.mark.parametrize("text, key, entry, n", SHORT_SEQUENCES)
def test_short_explicit_sequence_names_its_key_and_horizon(
    tmp_path, capsys, text, key, entry, n
):
    text = text.format(seq="[" + ", ".join([entry] * n) + "]")
    ini = tmp_path / "f.ini"
    ini.write_text(text + f"horizon = {n + 7}\n")
    out = str(tmp_path / "o")
    assert main(["run", str(ini), "--out-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {ini} [tv]: {key}: explicit sequence has {n} entries; "
        f"horizon {n + 7} needs {n + 8}\n"
    )
    # the check reads the horizon after the override
    with pytest.raises(RunError, match=f"^{key}: .*; horizon {n} needs {n + 1}$"):
        run_scenario(one(text), out, horizon=n)
    assert main(["run", str(ini), "--out-dir", out, "--horizon", str(n - 1)]) == 0
    assert len((tmp_path / "o" / "tv.csv").read_text().splitlines()) == n + 1


def test_runs_are_byte_deterministic(tmp_path):
    text = (
        bb_text("v", 0.4, "p0 = 5.0\nhorizon = 150\ntruncation = 40\n")
        + "\n[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.9\nseed = 3\nhorizon = 60\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    for sc in parse_scenarios(text):
        run_scenario(sc, a)
        run_scenario(sc, b)
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


# --- command line -----------------------------------------------------------


def test_cli_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert out == list_models()
    assert "barebones_timevarying" in out


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.ini"
    good.write_text(bb_text("a", 0.4))
    assert main(["validate", str(good)]) == 0
    assert "1 scenario(s) valid" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[a]\nmodel = barebones\npi 0.1\n")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["validate", str(tmp_path / "missing.ini")]) == 2


def test_cli_validate_refuses_both_starts(tmp_path, capsys):
    # a section that run would refuse fails validation too
    bad = tmp_path / "t.ini"
    bad.write_text(bb_text("b", 0.4, "p0 = 5.0\nw0 = 30.0\n"))
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:9: [b] w0: give p0 or w0, not both\n"
    )


def test_cli_validate_checks_columns(tmp_path, capsys):
    # a column the model cannot write fails validation, not only the run
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "survival = 0.9\ncolumns = t, W\n"
    )
    assert main(["validate", str(bad)]) == 2
    assert "does not write column 'W'" in capsys.readouterr().err


def test_cli_run(tmp_path, capsys):
    ini = tmp_path / "s.ini"
    ini.write_text(
        "[sam]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\n"
        "old_endow = 1\nhorizon = 10\n" + bb_text("bb", 0.4, "horizon = 10\n")
    )
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and all(p.startswith("wrote ") for p in printed)
    assert (out / "sam.csv").exists() and (out / "bb_summary.txt").exists()

    # selecting one section by name runs only that section
    out2 = tmp_path / "out2"
    assert main(["run", str(ini), "sam", "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert not (out2 / "bb.csv").exists()

    assert main(["run", str(ini), "nope", "--out-dir", str(out)]) == 2
    assert "no scenario named" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_run_failure_exits_one(tmp_path, capsys):
    ini = tmp_path / "f.ini"
    ini.write_text(bb_text("f", 0.7, "w0 = 5.0\nrequire_feasible = true\n"))
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    # the message names the file and the scenario
    assert capsys.readouterr().err.startswith(f"error: {ini} [f]: ")

    # an overflowing path: the error line is all that reaches stderr
    ini.write_text(bb_text("big", 0.7, "p0 = 5\nhorizon = 20000\n"))
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {ini} [big]: [big] column 'P' is inf")

    ini.write_text(SAMUELSON_PRICE_RENT)
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert f"error: {ini} [pr]: " in capsys.readouterr().err

    # a price start below the wealth floor, with feasibility enforced
    ini.write_text(bb_text("f", 0.7, "p0 = 5\nrequire_feasible = true\n"))
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ini} [f]: land return exceeds the capital return at t = 0; "
        "full investment is not an equilibrium on this path\n"
    )
    # below threshold_low no start admits full investment, enforced or not
    for start in ("p0 = 5.0\n", "w0 = 50.0\n"):
        ini.write_text(bb_text("low", 0.1, start + "require_feasible = false\n"))
        assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {ini} [low]: full investment needs productivity > 0.13263"
        )



def test_cli_run_exits_one_when_the_output_directory_cannot_be_made(
    tmp_path, capsys
):
    ini = tmp_path / "s.ini"
    ini.write_text(bb_text("bb", 0.4, "horizon = 10\n"))
    blocker = tmp_path / "out"
    blocker.write_text("")
    assert main(["run", str(ini), "--out-dir", str(blocker)]) == 1
    assert capsys.readouterr().err.startswith("error: ")

def test_cli_names_the_underflow_of_a_deflating_samuelson_price(tmp_path, capsys):
    ini = tmp_path / "s.ini"
    ini.write_text(
        "[s]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
        "p0 = 0.5\nhorizon = 5000\n"
    )
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ini} [s]: the price underflows to zero at t = 647: the "
        "equilibrium price is positive but below the smallest double\n"
    )
    assert not (tmp_path / "o" / "s.csv").exists()


def test_names_listed_twice_are_rejected():
    sweep = (
        "[g]\nmodel = barebones\nsweep = productivity\nvalues = [0.1]\n"
        "stats = regime, regime\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
    )
    assert "[g] stats: 'regime' is listed twice" in err(sweep)
    run = bb_text("r", 0.4, "columns = t, P, P\n")
    assert "[r] columns: 'P' is listed twice" in err(run)


def test_cli_run_reports_arithmetic_errors(tmp_path, capsys, monkeypatch):
    from bubblelab import cli

    def overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cli, "run_scenario", overflow)
    ini = tmp_path / "s.ini"
    ini.write_text(bb_text("bb", 0.4))
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ini} [bb]: (34, 'Numerical result out of range')\n"
    )


def test_cli_run_one_ulp_below_the_upper_threshold(tmp_path, capsys):
    # no steady state there (the balanced rate rounds to 1): a message,
    # not a division by zero
    ini = tmp_path / "s.ini"
    ini.write_text(bb_text("edge", 0.6063157894736845))
    assert main(["run", str(ini), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {ini} [edge]: no steady state: the price-map slope is at "
        "or above 1; give p0 or w0\n"
    )
