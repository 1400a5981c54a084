"""The full text of every error the scenario section checker raises.

Each case is one section that breaks one rule of the model, key, column or
sweep checks, or two rules at once to pin which of them is reported first.
The expected strings are the whole message, so a refactor of the checker
that changes a word, a line number or the order of its checks fails here.
"""

import numpy as np
import pytest

from bubblelab import ScenarioError, load_scenarios, parse_scenarios, run_scenario
from bubblelab.cli import main

BB = (
    "[g]\nmodel = barebones\npi = 0.1\nbeta = 0.95\ndelta = 0.08\n"
    "productivity = 0.4\nrent = 1.0\n"
)
SW = (
    "[g]\nmodel = barebones\nsweep = productivity\nvalues = [0.1, 0.7]\n"
    "stats = regime\npi = 0.1\nbeta = 0.95\ndelta = 0.08\nrent = 1.0\n"
)
TIR = "[k]\nmodel = tirole\nbeta = 0.95\nalpha = 0.33\ndelta = 0.6\ntfp = 1.0\n"
WEIL = (
    "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"
    "survival = 0.9\n"
)
WIL = (
    "[y]\nmodel = wilson\nbeta = 0.6\nyoung_endow = geometric(1.0, 1.05)\n"
    "dividend = constant(0.1)\n"
)
SAM = "[s]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n"

CASES = [
    pytest.param(
        "[a]\nbeta = 0.5\n",
        "t.ini:1: [a] is missing the model key",
        id="missing_model",
    ),
    pytest.param(
        "[a]\nmodel = dsge\n",
        (
            "t.ini:2: [a] model: unknown model 'dsge'; known: barebones, "
            "barebones_construct, barebones_switch, barebones_timevarying, "
            "bewley, samuelson, tirole, tirole_crowdin, weil, wilson"
        ),
        id="unknown_model",
    ),
    pytest.param(
        BB + "color = blue\n",
        (
            "t.ini:8: [g] color: unknown key for model 'barebones'; known: "
            "beta, delta, horizon, land_supply, p0, pi, productivity, rent, "
            "require_feasible, truncation, w0"
        ),
        id="unknown_key",
    ),
    pytest.param(
        BB + "p0 = 5.0\nw0 = 30.0\n",
        "t.ini:9: [g] w0: give p0 or w0, not both",
        id="p0_and_w0",
    ),
    pytest.param(
        BB + "w0 = 30.0\ncolumns = t, speed\np0 = 5.0\n",
        "t.ini:8: [g] w0: give p0 or w0, not both",
        id="p0_and_w0_before_columns",
    ),
    pytest.param(
        BB + "values = [0.1]\n",
        "t.ini:8: [g] values: 'values' is only valid in sweep scenarios",
        id="values_in_run",
    ),
    pytest.param(
        BB + "stats = regime\n",
        "t.ini:8: [g] stats: 'stats' is only valid in sweep scenarios",
        id="stats_in_run",
    ),
    pytest.param(
        BB.replace("rent = 1.0\n", ""),
        "t.ini:1: [g] is missing required key 'rent'",
        id="missing_required",
    ),
    pytest.param(
        BB.replace("0.95", "fast"),
        "t.ini:4: [g] beta: expected a number, got 'fast'",
        id="bad_float",
    ),
    pytest.param(
        BB + "p0 = -inf\n",
        "t.ini:8: [g] p0: expected a finite number, got '-inf'",
        id="non_finite_float",
    ),
    pytest.param(
        BB + "horizon = 4.5\n",
        "t.ini:8: [g] horizon: expected an integer, got '4.5'",
        id="bad_int",
    ),
    pytest.param(
        BB + "require_feasible = maybe\n",
        "t.ini:8: [g] require_feasible: expected true or false, got 'maybe'",
        id="bad_bool",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "spline(1, 2)"),
        "t.ini:5: [y] dividend: unknown sequence form 'spline'",
        id="unknown_sequence_form",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "geometric(1)"),
        "t.ini:5: [y] dividend: expected 2 arguments, got 1",
        id="sequence_arguments",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "0.1"),
        (
            "t.ini:5: [y] dividend: expected geometric(a, r), polynomial(a, "
            "k), constant(c) or [v0, v1, ...], got '0.1'"
        ),
        id="not_a_sequence",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "[]"),
        "t.ini:5: [y] dividend: empty list",
        id="empty_sequence",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "geometric(-1, 2)"),
        "t.ini:5: [y] dividend: scale must be nonnegative and finite",
        id="geometric_negative_scale",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "geometric(1, 0)"),
        "t.ini:5: [y] dividend: ratio must be positive and finite",
        id="geometric_zero_ratio",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "polynomial(-1, 2)"),
        "t.ini:5: [y] dividend: scale must be nonnegative and finite",
        id="polynomial_negative_scale",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "constant(-1)"),
        "t.ini:5: [y] dividend: scale must be nonnegative and finite",
        id="constant_negative_level",
    ),
    pytest.param(
        WIL.replace("geometric(1.0, 1.05)", "[1.0, 1.05, 1.1]"),
        "t.ini:4: [y] young_endow: the Wilson bubble test needs at least 100 entries, got 3",
        id="wilson_short_young_endow",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "[0.1, 0.1, 0.1, 0.1]"),
        "t.ini:5: [y] dividend: the Wilson bubble test needs at least 100 entries, got 4",
        id="wilson_short_dividend",
    ),
    pytest.param(
        WIL.replace("constant(0.1)", "[" + ", ".join(["0.1"] * 120) + "]")
        + "test_horizon = 50\n",
        "t.ini:6: [y] test_horizon: the Wilson bubble test needs at least 100 terms, got 50",
        id="wilson_short_test_horizon",
    ),
    pytest.param(
        BB.replace("rent = 1.0\n", "") + "color = blue\n",
        (
            "t.ini:7: [g] color: unknown key for model 'barebones'; known: "
            "beta, delta, horizon, land_supply, p0, pi, productivity, rent, "
            "require_feasible, truncation, w0"
        ),
        id="unknown_key_before_missing",
    ),
    pytest.param(
        BB + "horizon = x\np0 = y\n",
        "t.ini:8: [g] horizon: expected an integer, got 'x'",
        id="first_bad_key_in_file_order",
    ),
    pytest.param(
        TIR + "columns = t, P\n",
        "t.ini:7: [k] columns: model 'tirole' produces no path",
        id="columns_without_path",
    ),
    pytest.param(
        BB + "columns = ,\n",
        "t.ini:8: [g] columns: expected a comma-separated name list",
        id="columns_empty",
    ),
    pytest.param(
        BB + "columns = t, P, t\n",
        "t.ini:8: [g] columns: 't' is listed twice",
        id="column_listed_twice",
    ),
    pytest.param(
        BB + "columns = t, price\n",
        (
            "t.ini:8: [g] columns: unknown column 'price'; known: t, P, D, R, "
            "W, K, phi, price_rent, yield, V, bubble"
        ),
        id="unknown_column",
    ),
    pytest.param(
        WEIL + "columns = t, W\n",
        (
            "t.ini:7: [w] columns: model 'weil' does not write column 'W'; it "
            "writes: t, P, D, R, price_rent, yield"
        ),
        id="column_not_written",
    ),
    pytest.param(
        BB + "columns = t, P, V\n",
        (
            "t.ini:8: [g] columns: column 'V' needs a truncation key to run "
            "the valuation"
        ),
        id="column_needs_truncation",
    ),
    pytest.param(
        BB + "columns = t, price\ncolor = blue\n",
        (
            "t.ini:9: [g] color: unknown key for model 'barebones'; known: "
            "beta, delta, horizon, land_supply, p0, pi, productivity, rent, "
            "require_feasible, truncation, w0"
        ),
        id="option_before_column",
    ),
    pytest.param(
        TIR + "color = blue\ncolumns = t\n",
        "t.ini:8: [k] columns: model 'tirole' produces no path",
        id="no_path_before_option",
    ),
    pytest.param(
        SW.replace("barebones", "weil"),
        (
            "t.ini:3: [g] sweep: model 'weil' does not support sweeps; "
            "sweepable: barebones, samuelson, tirole, tirole_crowdin"
        ),
        id="sweep_without_grid",
    ),
    pytest.param(
        "[s]\nmodel = barebones_switch\nsweep = pi\n",
        (
            "t.ini:3: [s] sweep: model 'barebones_switch' does not support "
            "sweeps; sweepable: barebones, samuelson, tirole, tirole_crowdin"
        ),
        id="sweep_switch",
    ),
    pytest.param(
        SW.replace("sweep = productivity", "sweep = horizon"),
        (
            "t.ini:1: [g] cannot sweep 'horizon'; sweepable parameters: pi, "
            "beta, delta, productivity, rent, land_supply"
        ),
        id="sweep_run_control",
    ),
    pytest.param(
        SW.replace("sweep = productivity", "sweep = speed"),
        (
            "t.ini:1: [g] cannot sweep 'speed'; sweepable parameters: pi, "
            "beta, delta, productivity, rent, land_supply"
        ),
        id="sweep_unknown_key",
    ),
    pytest.param(
        SAM.replace(
            "beta = 0.5\n", "sweep = p0\nvalues = [1.0]\nstats = autarky_rate\n"
        ),
        (
            "t.ini:1: [s] cannot sweep 'p0'; sweepable parameters: beta, "
            "young_endow, old_endow"
        ),
        id="sweep_samuelson_p0",
    ),
    pytest.param(
        SW.replace("values = [0.1, 0.7]\n", ""),
        "t.ini:1: [g] sweep needs a values key",
        id="sweep_needs_values",
    ),
    pytest.param(
        SW.replace("[0.1, 0.7]", "range(1, 2)"),
        (
            "t.ini:4: [g] values: expected linspace(lo, hi, n) or [v0, v1, "
            "...], got 'range(1, 2)'"
        ),
        id="values_form",
    ),
    pytest.param(
        SW.replace("[0.1, 0.7]", "linspace(0, 1, 1)"),
        "t.ini:4: [g] values: linspace needs an integer count >= 2",
        id="linspace_count",
    ),
    pytest.param(
        SW.replace("[0.1, 0.7]", "linspace(0, 1)"),
        "t.ini:4: [g] values: expected 3 arguments, got 2",
        id="linspace_arguments",
    ),
    pytest.param(
        SW.replace("[0.1, 0.7]", "linspace(0, 1, 1e20)"),
        "t.ini:4: [g] values: linspace count 100000000000000000000 is too large",
        id="linspace_count_beyond_numpy",
    ),
    pytest.param(
        SW.replace("[0.1, 0.7]", "[0.1, inf]"),
        "t.ini:4: [g] values: expected a finite number, got 'inf'",
        id="values_non_finite",
    ),
    pytest.param(
        SW.replace("stats = regime\n", ""),
        "t.ini:1: [g] sweep needs a stats key",
        id="sweep_needs_stats",
    ),
    pytest.param(
        SW.replace("stats = regime", "stats = velocity"),
        (
            "t.ini:5: [g] stats: unknown statistic 'velocity' for "
            "'barebones'; known: longrun_rate, regime, has_bubble, "
            "steady_price, steady_rate, price_slope, min_wealth, "
            "threshold_low, threshold_high"
        ),
        id="unknown_statistic",
    ),
    pytest.param(
        SW.replace("stats = regime", "stats = regime, regime"),
        "t.ini:5: [g] stats: 'regime' is listed twice",
        id="statistic_listed_twice",
    ),
    pytest.param(
        SW + "horizon = 50\n",
        "t.ini:10: [g] horizon: only model parameters are allowed in sweeps",
        id="run_control_in_sweep",
    ),
    pytest.param(
        SW + "columns = t, P\n",
        "t.ini:10: [g] columns: only model parameters are allowed in sweeps",
        id="columns_in_sweep",
    ),
    pytest.param(
        SW + "color = blue\n",
        "t.ini:10: [g] color: only model parameters are allowed in sweeps",
        id="unknown_key_in_sweep",
    ),
    pytest.param(
        SW.replace("rent = 1.0\n", ""),
        "t.ini:1: [g] is missing required key 'rent'",
        id="sweep_missing_param",
    ),
    pytest.param(
        TIR.replace("tirole", "tirole_crowdin").replace("tfp = 1.0\n", "")
        + "sweep = tfp\nvalues = [1.0]\nstats = crowding\n",
        "t.ini:1: [k] is missing required key 'entrepreneur_prob'",
        id="crowdin_missing_param",
    ),
    pytest.param(
        SW.replace("stats = regime", "stats = velocity") + "horizon = 50\n",
        (
            "t.ini:5: [g] stats: unknown statistic 'velocity' for "
            "'barebones'; known: longrun_rate, regime, has_bubble, "
            "steady_price, steady_rate, price_slope, min_wealth, "
            "threshold_low, threshold_high"
        ),
        id="statistic_before_option",
    ),
    pytest.param(
        SW.replace("0.95", "fast"),
        "t.ini:7: [g] beta: expected a number, got 'fast'",
        id="sweep_bad_param_value",
    ),
]


@pytest.mark.parametrize("text, message", CASES)
def test_section_error_message(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenarios(text, source="t.ini")
    assert str(exc.value) == message


@pytest.mark.parametrize("dividend", ["[0, 0, 0]", "constant(0)"])
def test_short_wilson_lists_run_when_the_dividend_is_zero(tmp_path, dividend):
    # a zero dividend is a pure bubble: the test needs no terms at all
    text = WIL.replace("geometric(1.0, 1.05)", "[1.0, 1.05, 1.1]")
    (sc,) = parse_scenarios(text.replace("constant(0.1)", dividend), source="t.ini")
    result = run_scenario(sc, tmp_path, horizon=2)
    assert result.summary["has_bubble"] is True


@pytest.mark.parametrize("extra", ["productivity = 0.4\n", "productivity = x\n"])
def test_swept_parameter_given_a_value_is_rejected(extra):
    # the value used to be dropped without a word; it is refused before it
    # is converted, and before the checks of later keys
    with pytest.raises(ScenarioError) as exc:
        parse_scenarios(SW + extra + "horizon = 50\n", source="t.ini")
    assert str(exc.value) == (
        "t.ini:10: [g] productivity: the swept parameter takes its points "
        "from the values key, not a value of its own"
    )


def test_a_linspace_grid_memory_cannot_hold_is_a_parse_error(monkeypatch):
    # numpy raises MemoryError when the grid fits its size limit but not in
    # memory; a stand-in raises it without allocating anything
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(np, "linspace", out_of_memory)
    text = SW.replace("[0.1, 0.7]", "linspace(0, 1, 1e10)")
    with pytest.raises(ScenarioError) as exc:
        parse_scenarios(text, source="t.ini")
    assert str(exc.value) == "t.ini:4: [g] values: linspace count 10000000000 is too large"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # a Latin-1 comment: the file is read as UTF-8 whatever the locale says
    ini = tmp_path / "t.ini"
    ini.write_bytes(BB.replace("[g]\n", "[g]\n# caf\xe9 prices\n").encode("latin-1"))
    with pytest.raises(ScenarioError) as exc:
        load_scenarios(ini)
    assert str(exc.value) == f"{ini}:2: byte 0xe9 is not UTF-8 text"
    for argv in (["validate", str(ini)], ["run", str(ini), "--out-dir", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
