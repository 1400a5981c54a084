"""The package's public names, and its result records: immutable
NamedTuples with attribute access, keyword construction, equality and
positional unpacking. Dataclasses are kept for inputs they validate."""

import dataclasses
import inspect

import pytest

import bubblelab
from bubblelab import (
    barebones,
    bewley,
    classify_regime,
    classify_series_exact,
    construct_equilibrium,
    olg,
    paths,
    recur,
    scenarios,
    sequences,
    thresholds,
    tirole,
    valuation,
    wilson,
)
from tests.test_barebones import cp

MODULES = (
    barebones, bewley, olg, paths, recur, scenarios, sequences, tirole, valuation,
    wilson,
)

# every public name of the package
EXPORTS = (
    "AffineRecurrence", "BareBonesParams", "BewleyEquilibrium",
    "BewleyParams", "BubbleReport", "ConstructedEquilibrium",
    "ConstructionError", "EquilibriumPath", "ExplicitSeq",
    "FeasibilityError", "GeometricSeq", "PolynomialSeq", "Regime",
    "RegimeKind", "RunError", "RunResult",
    "SamuelsonParams", "Scenario", "ScenarioError", "SeriesClass",
    "SeriesKind", "SteadyState", "Thresholds", "TimeVaryingResult",
    "TiroleParams", "TiroleSteadyStates", "WeilParams", "WilsonParams",
    "autarky_rate", "balanced_rate", "bewley_path", "bewley_price",
    "bewley_validate", "capital_return", "classify_regime",
    "classify_series", "classify_series_exact",
    "constant", "construct_equilibrium", "crossover_pi", "detect_bubble",
    "discount_factors", "fundamental_value", "gross_rates",
    "list_models", "load_scenarios", "longrun_rate",
    "min_wealth", "no_arbitrage_residuals",
    "parse_scenarios", "price_drift", "price_recurrence", "price_slope",
    "run_scenario", "run_sweep_values", "samuelson_equilibria",
    "savings_identity_residual", "samuelson_price_path",
    "serialize_scenario", "simulate_from_price",
    "simulate_regime_switch", "simulate_timevarying", "solve_affine",
    "steady_path", "steady_state", "thresholds", "timevarying_threshold",
    "tirole_crowdin_steady", "tirole_steady",
    "truncation_identity_residuals", "weil_sample_path",
    "weil_stationary_price", "wilson_bubble_test", "wilson_path",
    "yield_test",
)

RECORDS = (
    barebones.Thresholds,
    barebones.NecessityTriple,
    barebones.Regime,
    barebones.SteadyState,
    barebones.ConstructedEquilibrium,
    barebones.TimeVaryingResult,
    bewley.BewleyEquilibrium,
    olg.SamuelsonEquilibria,
    recur.SeriesClass,
    tirole.BubblySteady,
    tirole.TiroleSteadyStates,
    valuation.BubbleReport,
    valuation.YieldDetection,
    scenarios._RawSection,
    scenarios.Opt,
    scenarios.ModelSpec,
    scenarios.Scenario,
    scenarios._ModelOutput,
    scenarios.RunResult,
)


def test_every_former_export_is_still_an_attribute():
    missing = [n for n in EXPORTS + ("__version__",) if not hasattr(bubblelab, n)]
    assert missing == []
    listed = set(dir(bubblelab))
    assert [n for n in EXPORTS + ("__version__",) if n not in listed] == []
    star: dict = {}
    exec("from bubblelab import *", star)
    assert [n for n in EXPORTS if star.get(n) is not getattr(bubblelab, n)] == []
    with pytest.raises(AttributeError):
        bubblelab.no_such_name


def test_dataclasses_are_only_the_classes_that_validate_their_input():
    classes = [
        cls
        for mod in MODULES
        for cls in vars(mod).values()
        if inspect.isclass(cls) and cls.__module__ == mod.__name__
    ]
    kept = [cls for cls in classes if dataclasses.is_dataclass(cls)]
    assert len(kept) == 11
    assert all("__post_init__" in vars(cls) for cls in kept)
    records = [cls for cls in classes if issubclass(cls, tuple)]
    assert sorted(c.__qualname__ for c in records) == sorted(
        c.__qualname__ for c in RECORDS
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_immutable_named_tuples(cls):
    # no field may shadow a tuple method such as count or index
    assert not set(cls._fields) & set(dir(tuple))
    values = {name: i for i, name in enumerate(cls._fields)}
    rec = cls(**values)
    assert [getattr(rec, name) for name in cls._fields] == list(values.values())
    assert rec == cls(*values.values())
    assert rec != cls(**{**values, cls._fields[-1]: -1})
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)


def test_records_unpack_by_position():
    p = cp(0.7)
    th = thresholds(p)
    low, high = th
    assert (low, high) == (th.low, th.high)
    kind, necessity = classify_regime(p)
    assert kind is barebones.RegimeKind.BUBBLY_UNBALANCED and necessity.holds
    j, w_switch, path, residual = construct_equilibrium(p, 2.0, 50)
    assert path.wealth[j] == w_switch and residual <= 1e-10
    kind, tail_ratio = classify_series_exact(0.5)
    assert (kind, tail_ratio) == (recur.SeriesKind.CONVERGENT, 0.5)
    rate, dividend_growth, economy_growth = necessity
    assert dividend_growth == 1.0 and rate < dividend_growth < economy_growth
    assert type(necessity) is recur.NecessityTriple
    assert type(necessity)._fields == (
        "fundamental_rate", "dividend_growth", "economy_growth"
    )


# every path builder, and the only ``meta`` keys it writes: the diagnostics
# it finds while building (inputs and closed forms are read from their own
# functions instead)
_BUILDERS = {
    "simulate_from_price": (
        lambda: barebones.simulate_from_price(cp(0.7), 1.0, 10), set()
    ),
    "steady_path": (lambda: barebones.steady_path(cp(0.4), 10), set()),
    "construct_equilibrium": (
        lambda: construct_equilibrium(cp(0.7), 2.0, 10).path, set()
    ),
    "simulate_regime_switch": (
        lambda: barebones.simulate_regime_switch(cp(0.4), cp(0.7), 1, 5, 10),
        {"arbitrage_violations"},
    ),
    "simulate_timevarying": (
        lambda: barebones.simulate_timevarying(cp(0.7), 30.0, 10).path, set()
    ),
    "samuelson_price_path": (
        lambda: olg.samuelson_price_path(olg.SamuelsonParams(0.5, 3.0, 1.0), 0.5, 10),
        set(),
    ),
    "weil_sample_path": (
        lambda: olg.weil_sample_path(olg.WeilParams(0.5, 3.0, 1.0, 0.8), 0, 10),
        {"collapse_time"},
    ),
    "bewley_path": (
        lambda: bewley.bewley_path(bewley.BewleyParams(0.9, 1.0, 1.0, 2.0, 1.0), 10),
        set(),
    ),
    "wilson_path": (
        lambda: wilson.wilson_path(
            wilson.WilsonParams(0.6, sequences.constant(1.0), sequences.constant(0.1)),
            10,
        ),
        set(),
    ),
}


@pytest.mark.parametrize("name", _BUILDERS)
def test_builders_keep_only_what_they_find_in_meta(name):
    build, keys = _BUILDERS[name]
    assert set(build().meta) == keys
