"""Closed-form laboratory for rational asset bubbles.

Small dynamic economies in which asset prices, returns, and fundamental
values have closed forms, so bubble claims can be checked by arithmetic
instead of simulation error. The models share a common path container and
a valuation layer that decomposes prices into discounted dividends plus a
residual bubble component.

Every name below is importable from the package, but a module is loaded
only when one of its names (or the module itself) is first used, so a
program pays start-up only for the models it runs.
"""

import importlib

# each module of the package and the names the package exports from it
_EXPORTS = {
    "barebones": (
        "BareBonesParams", "ConstructedEquilibrium", "ConstructionError",
        "FeasibilityError", "Regime", "RegimeKind", "SteadyState", "Thresholds",
        "TimeVaryingResult", "balanced_rate", "capital_return", "classify_regime",
        "construct_equilibrium", "longrun_rate", "min_wealth", "price_drift",
        "price_recurrence", "price_slope", "simulate_forward",
        "simulate_from_price", "simulate_regime_switch", "simulate_timevarying",
        "steady_path", "steady_state", "threshold_values", "thresholds",
        "timevarying_threshold",
    ),
    "bewley": (
        "BewleyEquilibrium", "BewleyParams", "bewley_path", "bewley_price",
        "bewley_validate",
    ),
    "csvio": (),  # the module alone
    "olg": (
        "SamuelsonParams", "WeilParams", "autarky_rate", "samuelson_equilibria",
        "samuelson_price_path", "weil_sample_path", "weil_stationary_price",
    ),
    "paths": ("EquilibriumPath", "gross_rates"),
    "recur": (
        "AffineRecurrence", "LimitClass", "LimitKind", "SeriesClass",
        "SeriesKind", "classify_limit", "classify_series",
        "classify_series_exact", "iterate_affine", "solve_affine",
    ),
    "scenarios": (
        "RunError", "RunResult", "Scenario", "ScenarioError", "list_models",
        "load_scenarios", "parse_scenarios", "run_scenario", "run_sweep_values",
        "serialize_scenario",
    ),
    "sequences": ("ExplicitSeq", "GeometricSeq", "PolynomialSeq", "constant"),
    "tirole": (
        "TiroleParams", "TiroleSteadyStates", "crossover_pi",
        "savings_identity_residual", "tirole_crowdin_steady", "tirole_steady",
    ),
    "valuation": (
        "BubbleReport", "detect_bubble", "discount_factors", "fundamental_value",
        "no_arbitrage_residuals", "truncation_identity_residuals",
    ),
    "wilson": ("WilsonParams", "wilson_bubble_test", "wilson_path"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Load a module of the package, or the module defining an exported
    name, on first access; later lookups find it in the package globals."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
