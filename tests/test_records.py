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
    necessity_report,
    olg,
    paths,
    recur,
    scenarios,
    sequences,
    threshold_values,
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

# every name the package exported when it still listed them in __all__
EXPORTS = (
    "AffineRecurrence", "BareBonesParams", "BewleyEquilibrium",
    "BewleyParams", "BubbleReport", "ConstructedEquilibrium",
    "ConstructionError", "EquilibriumPath", "ExplicitSeq",
    "FeasibilityError", "GeometricSeq", "LimitClass", "LimitKind",
    "PolynomialSeq", "Regime", "RegimeKind", "RunError", "RunResult",
    "SamuelsonParams", "Scenario", "ScenarioError", "SeriesClass",
    "SeriesKind", "SteadyState", "Thresholds", "TimeVaryingResult",
    "TiroleParams", "TiroleSteadyStates", "WeilParams", "WilsonParams",
    "autarky_rate", "balanced_rate", "bewley_path", "bewley_price",
    "bewley_validate", "capital_return", "classify_limit",
    "classify_regime", "classify_series", "classify_series_exact",
    "constant", "construct_equilibrium", "crossover_pi", "detect_bubble",
    "discount_factors", "fundamental_value", "gross_rates",
    "iterate_affine", "list_models", "load_scenarios", "longrun_rate",
    "min_wealth", "necessity_report", "no_arbitrage_residuals",
    "parse_scenarios", "price_drift", "price_recurrence", "price_slope",
    "run_scenario", "run_sweep_values", "samuelson_equilibria",
    "savings_identity_residual", "samuelson_price_path",
    "serialize_scenario", "simulate_forward", "simulate_from_price",
    "simulate_regime_switch", "simulate_timevarying", "solve_affine",
    "steady_path", "steady_state", "threshold_values", "thresholds",
    "timevarying_threshold", "tirole_crowdin_steady", "tirole_steady",
    "truncation_identity_residuals", "weil_sample_path",
    "weil_stationary_price", "wilson_bubble_test", "wilson_path",
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
    recur.LimitClass,
    recur.SeriesClass,
    tirole.BubblySteady,
    tirole.TiroleSteadyStates,
    valuation.DiscountPath,
    valuation.BubbleReport,
    valuation.YieldDetection,
    wilson.NecessityReport,
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
    low, high = thresholds(p)
    assert (low, high) == threshold_values(p.pi, p.beta, p.delta)
    kind, necessity = classify_regime(p)
    assert kind is barebones.RegimeKind.BUBBLY_UNBALANCED and necessity.holds
    j, w_switch, path = construct_equilibrium(p, 2.0, 50)
    assert path.meta["prephase_length"] == j and path.meta["w_switch"] == w_switch
    kind, tail_ratio = classify_series_exact(0.5)
    assert (kind, tail_ratio) == (recur.SeriesKind.CONVERGENT, 0.5)
    autarky, dividend_growth, endow_growth = necessity_report(
        0.5, 3.0, 1.0, 1.05, 1.02
    )
    assert autarky == pytest.approx(1 / 3)
    assert (dividend_growth, endow_growth) == (1.02, 1.05)
