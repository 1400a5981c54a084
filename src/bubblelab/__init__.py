"""Closed-form laboratory for rational asset bubbles.

Small dynamic economies in which asset prices, returns, and fundamental
values have closed forms, so bubble claims can be checked by arithmetic
instead of simulation error. The models share a common path container and
a valuation layer that decomposes prices into discounted dividends plus a
residual bubble component.
"""

from .barebones import (
    BareBonesParams,
    ConstructedEquilibrium,
    ConstructionError,
    FeasibilityError,
    Regime,
    RegimeKind,
    SteadyState,
    Thresholds,
    TimeVaryingResult,
    balanced_rate,
    capital_return,
    classify_regime,
    construct_equilibrium,
    longrun_rate,
    min_wealth,
    price_drift,
    price_recurrence,
    price_slope,
    simulate_forward,
    simulate_from_price,
    simulate_regime_switch,
    simulate_timevarying,
    steady_path,
    steady_state,
    threshold_values,
    thresholds,
    timevarying_threshold,
)
from .bewley import BewleyEquilibrium, BewleyParams, bewley_path, bewley_price, bewley_validate
from .olg import (
    SamuelsonParams,
    WeilParams,
    autarky_rate,
    samuelson_equilibria,
    samuelson_price_path,
    weil_sample_path,
    weil_stationary_price,
)
from .paths import EquilibriumPath, gross_rates
from .recur import (
    AffineRecurrence,
    LimitClass,
    LimitKind,
    SeriesClass,
    SeriesKind,
    classify_limit,
    classify_series,
    classify_series_exact,
    iterate_affine,
    solve_affine,
)
from .scenarios import (
    RunError,
    RunResult,
    Scenario,
    ScenarioError,
    list_models,
    load_scenarios,
    parse_scenarios,
    run_scenario,
    run_sweep_values,
    serialize_scenario,
)
from .sequences import ExplicitSeq, GeometricSeq, PolynomialSeq, constant
from .tirole import (
    TiroleParams,
    TiroleSteadyStates,
    crossover_pi,
    savings_identity_residual,
    tirole_crowdin_steady,
    tirole_steady,
)
from .valuation import (
    BubbleReport,
    detect_bubble,
    discount_factors,
    fundamental_value,
    no_arbitrage_residuals,
    truncation_identity_residuals,
)
from .wilson import WilsonParams, necessity_report, wilson_bubble_test, wilson_path

__version__ = "0.1.0"
