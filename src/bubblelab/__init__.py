"""Closed-form laboratory for rational asset bubbles.

Small dynamic economies in which asset prices, returns, and fundamental
values have closed forms, so bubble claims can be checked by arithmetic
instead of simulation error. The models share a common path container and
a valuation layer that decomposes prices into discounted dividends plus a
residual bubble component.

Every name below is importable from the package, which is the one loader
of its modules: a module is handed out unexecuted and runs on its first
attribute access (so a program pays start-up only for the models it
runs), and an exported name is read from its module.
"""

import importlib.util
import sys
from types import ModuleType

# each module of the package and the names the package exports from it
_EXPORTS = {
    "barebones": (
        "BareBonesParams", "ConstructedEquilibrium", "ConstructionError",
        "FeasibilityError", "Regime", "RegimeKind", "SteadyState", "Thresholds",
        "TimeVaryingResult", "balanced_rate", "capital_return", "classify_regime",
        "construct_equilibrium", "longrun_rate", "min_wealth", "price_drift",
        "price_recurrence", "price_slope", "simulate_from_price",
        "simulate_regime_switch", "simulate_timevarying", "steady_path",
        "steady_state", "thresholds", "timevarying_threshold",
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
        "AffineRecurrence", "SeriesClass", "SeriesKind", "classify_series",
        "classify_series_exact", "solve_affine", "yield_test",
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


def _module(name: str) -> ModuleType:
    """The package's module ``name``, executed on its first attribute
    access unless something has imported it already."""
    full = f"{__name__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def __getattr__(name: str) -> object:
    """Hand out a module of the package, or an exported name read from its
    module, on first access; later lookups find it in the package globals."""
    if name in _EXPORTS:
        value = _module(name)
    elif name in _MODULE_OF:
        value = getattr(_module(_MODULE_OF[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
