"""Sweep grids: every column a sweep writes equals the public scalar
functions at each of its points, bit for bit, and a grid that fails names
its first bad point."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import (  # noqa: E402
    BareBonesParams,
    RunError,
    SamuelsonParams,
    TiroleParams,
    autarky_rate,
    classify_regime,
    longrun_rate,
    min_wealth,
    price_slope,
    run_sweep_values,
    samuelson_equilibria,
    steady_state,
    thresholds,
    tirole_crowdin_steady,
)
from bubblelab.scenarios import MODELS, Scenario  # noqa: E402

NAN = math.nan

# --- the scalar oracles -------------------------------------------------------


def barebones_row(o: dict) -> dict:
    p = BareBonesParams(**o)
    th, regime, ss = thresholds(p), classify_regime(p), steady_state(p)
    return {
        "longrun_rate": longrun_rate(p),
        "regime": regime.kind.value,
        "has_bubble": regime.has_bubble,
        "steady_price": ss.price if ss else NAN,
        "steady_rate": ss.rate if ss else NAN,
        "price_slope": price_slope(p),
        "min_wealth": min_wealth(p),
        "threshold_low": th.low,
        "threshold_high": th.high,
    }


def tirole_row(o: dict) -> dict:
    ss = tirole_crowdin_steady(TiroleParams(**o))
    bub = ss.bubbly
    return {
        "k_fundamental": ss.k_fundamental,
        "r_fundamental": ss.r_fundamental,
        "k_bubbly": bub.capital if bub else NAN,
        "bubble_price": bub.price if bub else NAN,
        "crowding": ss.crowding or "none",
    }


def samuelson_row(o: dict) -> dict:
    p = SamuelsonParams(**o)
    eq = samuelson_equilibria(p)
    return {
        "stationary_price": eq.stationary_price if eq.has_bubbly else NAN,
        "autarky_rate": autarky_rate(p),
        "has_bubbly": eq.has_bubbly,
    }


_TIROLE_RANGES = {
    "beta": (0.5, 0.99),
    "alpha": (0.05, 0.6),
    "delta": (0.05, 1.0),
    "tfp": (0.1, 10.0),
}

# each sweepable model: its oracle and the range of each of its parameters.
# The ranges cover every regime: the land economy's productivity is drawn
# relative to its thresholds, and alpha reaches both sides of the Tirole
# bubble's existence condition.
SWEEPABLE = {
    "barebones": (
        barebones_row,
        {
            "pi": (0.02, 0.98),
            "beta": (0.5, 0.99),
            "delta": (0.01, 1.0),
            "productivity": None,
            "rent": (0.1, 5.0),
            "land_supply": (0.1, 5.0),
        },
    ),
    "tirole": (tirole_row, _TIROLE_RANGES),
    "tirole_crowdin": (
        tirole_row,
        {**_TIROLE_RANGES, "entrepreneur_prob": (0.01, 1.0)},
    ),
    "samuelson": (
        samuelson_row,
        {"beta": (0.05, 0.95), "young_endow": (0.01, 10.0), "old_endow": (0.01, 10.0)},
    ),
}

CASES = [(m, key) for m, (_, ranges) in SWEEPABLE.items() for key in ranges]


def test_cases_cover_every_sweepable_parameter():
    sweepable = {m: spec for m, spec in MODELS.items() if spec.grid is not None}
    assert set(SWEEPABLE) == set(sweepable)
    for model, spec in sweepable.items():
        params = [k for k, opt in spec.schema.items() if opt.param]
        assert list(SWEEPABLE[model][1]) == params


def same(got: object, want: object) -> bool:
    """Bit for bit, except that any NaN matches any NaN."""
    if isinstance(want, float):
        return type(got) is float and (
            (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex()
        )
    return type(got) is type(want) and got == want


@st.composite
def sweeps(draw, model: str, key: str):
    """A calibration and a grid over key: the grid's points uniform over the
    key's range. A productivity grid is drawn relative to the thresholds
    and holds them and their neighbouring doubles."""
    ranges = SWEEPABLE[model][1]
    o = {k: draw(st.floats(*r)) for k, r in ranges.items() if r is not None}
    if key == "productivity":
        low, high = thresholds(SimpleNamespace(**o))
        u = st.floats(0.0, 2.0).map(lambda x: x * high)
        edges = [low, high, math.nextafter(high, 0.0), math.nextafter(high, 3.0)]
        point = st.one_of(u, st.sampled_from(edges))
        points = draw(st.lists(point, min_size=1, max_size=25))
    else:
        if model == "barebones":
            low, high = thresholds(SimpleNamespace(**o))
            o["productivity"] = draw(st.floats(0.0, 2.0)) * high
        points = draw(st.lists(st.floats(*ranges[key]), min_size=1, max_size=25))
    o.pop(key, None)
    return o, points


def check_sweep(model: str, key: str, o: dict, points: list[float]) -> None:
    row = SWEEPABLE[model][0]
    stat_names = MODELS[model].stat_names
    sc = Scenario(
        name="g", model=model, options=o, sweep=key,
        sweep_values=tuple(points), stats=stat_names,
    )
    want = []
    for v in points:
        try:
            want.append(row({**o, key: v}))
        except (ValueError, ArithmeticError):
            with pytest.raises(RunError, match=f"at {key} = {v!r}: "):
                run_sweep_values(sc)
            return
    values, columns = run_sweep_values(sc)
    assert values.tolist() == points
    assert list(columns) == list(stat_names)
    for name, col in columns.items():
        got = col.tolist()
        bad = [i for i, w in enumerate(want) if not same(got[i], w[name])]
        assert not bad, (name, [(points[i], got[i], want[i][name]) for i in bad[:3]])


@pytest.mark.parametrize(("model", "key"), CASES)
def test_grid_columns_equal_the_scalar_functions(model, key):
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sweeps(model, key))
    def prop(drawn):
        check_sweep(model, key, *drawn)

    prop()


def test_tirole_grid_matches_python_pow():
    """On CPUs where np.power rounds differently from Python's float pow
    (about 5% of these points with AVX-512), a grid built on np.power
    would miss the scalar functions in the last bit."""
    o = {"beta": 0.94, "alpha": 0.31, "delta": 0.6, "tfp": 1.0}
    check_sweep(
        "tirole_crowdin", "entrepreneur_prob", o, np.linspace(0.01, 1.0, 2001).tolist()
    )


def grid_scenario(values: tuple[float, ...], stats: str = "regime") -> Scenario:
    return Scenario(
        name="grid", model="barebones",
        options=dict(pi=0.1, beta=0.95, delta=0.08, rent=1.0, land_supply=1.0),
        sweep="productivity",
        sweep_values=values,
        stats=tuple(stats.split(", ")),
    )


def test_a_failing_grid_names_its_first_bad_point():
    with pytest.raises(RunError, match=r"^sweep at productivity = -0\.1: product"):
        run_sweep_values(grid_scenario((0.5, -0.1, 0.7)))
    # an arithmetic failure inside the grid call: no capital return at
    # A = 0 with full depreciation, so min_wealth divides by zero
    sc = grid_scenario((0.5, 0.0, 0.3), "min_wealth")._replace(
        options={"pi": 0.1, "beta": 0.95, "delta": 1.0, "rent": 1.0, "land_supply": 1.0}
    )
    with pytest.raises(RunError, match=r"^sweep at productivity = 0\.0: "):
        run_sweep_values(sc)


def test_a_grid_one_ulp_below_the_upper_threshold_has_no_steady_state_there():
    edge = 0.6063157894736845   # below threshold_high, yet balanced_rate is 1
    values, cols = run_sweep_values(
        grid_scenario(
            (0.6, edge, 0.61), "regime, steady_price, steady_rate, longrun_rate"
        )
    )
    assert cols["regime"].tolist() == [
        "fundamental_balanced", "boundary_no_bubble", "bubbly_unbalanced",
    ]
    assert np.isnan(cols["steady_price"][1:]).all()
    assert np.isnan(cols["steady_rate"][1:]).all()
    # no steady state exists at the edge, so its long-run rate is the slope
    # rho (0.9999999999999998 there), not the balanced rate 1.0 beside it
    p = BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=edge, rent=1.0)
    assert cols["longrun_rate"][1] == price_slope(p) < 1.0
