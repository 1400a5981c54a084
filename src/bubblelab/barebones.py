"""Two-sector economy with linear capital and rent-paying land.

A unit measure of agents with log utility saves a fraction beta of wealth
each period. With probability pi an agent can turn savings into capital,
which pays A + 1 - delta next period; everyone can buy land, in fixed
supply X, paying rent D per period. Wealth accounting:

    W_t = (A + 1 - delta) K_t + (P_t + D) X
    C_t = (1 - beta) W_t,   K_{t+1} + P_t X = beta W_t

with phi_t the share of savings the investors put into capital,
K_{t+1} = beta phi_t W_t and P_t X = beta (1 - phi_t) W_t. Arbitrage caps
phi: land's return R_t = (P_{t+1} + D) / P_t must not fall short of capital
for investors to build (phi_t = pi means they invest everything), and must
not exceed it, or they would hold land only.

Two productivity thresholds organize everything (X drops out):

    low  = (1 - beta)/beta + delta
    high = (1 - beta)/(beta pi) + delta

Below ``low`` capital is dominated, land is pure fundamental, and the rate
settles at 1/beta. Between the two, full investment (phi = pi) sustains a
steady state whose rate (1 - beta pi (A+1-delta)) / (beta (1-pi)) lies in
(1, 1/beta): still fundamental pricing. At and above ``high`` the price
recurrence

    P_t = rho P_{t-1} + gamma,  rho = beta pi (A+1-delta) / (1-beta+beta pi)

has rho >= 1: no steady state, unbounded land prices, and (strictly above)
a genuine bubble: land appreciation outruns rents, sum D/P_t < infinity.

``construct_equilibrium`` assembles the equilibrium from an arbitrary
initial capital stock: a finite run of periods with interior phi (land and
capital returns equalized) whose length j is found by scanning the closing
equation, followed by full investment forever.

The time-varying extension drives (A_t, D_t) as sequences; the price-rent
ratio then follows an affine recurrence with slope
beta pi (A_t+1-delta) / ((1-beta+beta pi) G_t), G_t the rent growth factor,
and the bubble verdict is a liminf test on that slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath, gross_rates
from .recur import UNIT_SLOPE_TOL, AffineRecurrence, affine_path
from .sequences import Sequence, constant


class FeasibilityError(ValueError):
    """Initial condition incompatible with the arbitrage restrictions."""


class ConstructionError(RuntimeError):
    """No pre-phase length closes the backward construction; carries
    diagnostics about the scan."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class BareBonesParams:
    pi: float            # probability of an investment opportunity
    beta: float
    delta: float
    productivity: float  # A
    rent: float          # D
    land_supply: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.pi < 1.0):
            raise ValueError(f"pi must lie in (0,1), got {self.pi}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0,1], got {self.delta}")
        if not (self.productivity >= 0.0):
            raise ValueError("productivity must be nonnegative")
        if not (self.rent > 0.0):
            raise ValueError("rent must be positive")
        if not (self.land_supply > 0.0):
            raise ValueError("land_supply must be positive")


class Thresholds(NamedTuple):
    low: float    # below: capital unused, land-only steady state
    high: float   # at and above: no steady state, prices unbounded


def threshold_values(pi: float, beta: float, delta: float) -> tuple[float, float]:
    """The two productivity cutoffs; defined for pi in (0, 1] (they coincide
    at pi = 1)."""
    low = (1.0 - beta) / beta + delta
    high = (1.0 - beta) / (beta * pi) + delta
    return low, high


def thresholds(p: BareBonesParams) -> Thresholds:
    low, high = threshold_values(p.pi, p.beta, p.delta)
    return Thresholds(low=low, high=high)


def capital_return(p: BareBonesParams) -> float:
    return p.productivity + 1.0 - p.delta


def _savings_split(p: BareBonesParams) -> float:
    # recurring denominator 1 - beta + beta*pi
    return 1.0 - p.beta + p.beta * p.pi


def price_slope(p: BareBonesParams) -> float:
    """rho in the full-investment price map P_t = rho P_{t-1} + gamma."""
    return p.beta * p.pi * capital_return(p) / _savings_split(p)


def price_drift(p: BareBonesParams) -> float:
    """gamma in the full-investment price map (independent of X)."""
    return p.beta * (1.0 - p.pi) * p.rent / _savings_split(p)


def price_recurrence(p: BareBonesParams, p0: float) -> AffineRecurrence:
    return AffineRecurrence(slope=price_slope(p), drift=price_drift(p), initial=p0)


def balanced_rate(p: BareBonesParams) -> float:
    """Steady-state land return under full investment,
    (1 - beta pi (A+1-delta)) / (beta (1-pi)). Meaningful as an equilibrium
    rate only between the thresholds; computable anywhere (and used as the
    counterfactual rate in the regime report)."""
    return (1.0 - p.beta * p.pi * capital_return(p)) / (p.beta * (1.0 - p.pi))


class RegimeKind(str, Enum):
    LAND_ONLY = "land_only"
    FUNDAMENTAL_BALANCED = "fundamental_balanced"
    BOUNDARY_NO_BUBBLE = "boundary_no_bubble"
    BUBBLY_UNBALANCED = "bubbly_unbalanced"


class NecessityTriple(NamedTuple):
    """Rate comparison behind bubble existence: the counterfactual balanced
    rate against rent growth (1, rents are constant here) and the economy's
    long-run growth factor max(1, rho)."""

    counterfactual_rate: float
    rent_growth: float
    economy_growth: float

    @property
    def holds(self) -> bool:
        return self.counterfactual_rate < self.rent_growth < self.economy_growth


class Regime(NamedTuple):
    kind: RegimeKind
    necessity: NecessityTriple

    @property
    def has_bubble(self) -> bool:
        return self.kind is RegimeKind.BUBBLY_UNBALANCED


def classify_regime(p: BareBonesParams) -> Regime:
    """Which of the four long-run regimes the parameters produce. The
    boundary is detected on the price-map slope (|rho - 1| within the unit
    tolerance), keeping it consistent with the recurrence classifier."""
    th = thresholds(p)
    rho = price_slope(p)
    if p.productivity <= th.low:
        kind = RegimeKind.LAND_ONLY
    elif abs(rho - 1.0) <= UNIT_SLOPE_TOL:
        kind = RegimeKind.BOUNDARY_NO_BUBBLE
    elif rho < 1.0:
        kind = RegimeKind.FUNDAMENTAL_BALANCED
    else:
        kind = RegimeKind.BUBBLY_UNBALANCED
    necessity = NecessityTriple(
        counterfactual_rate=balanced_rate(p),
        rent_growth=1.0,
        economy_growth=max(1.0, rho),
    )
    return Regime(kind=kind, necessity=necessity)


class SteadyState(NamedTuple):
    regime: RegimeKind
    rate: float
    price: float
    wealth: float
    capital: float
    phi: float
    phi_indeterminate: bool = False


def steady_state(p: BareBonesParams) -> SteadyState | None:
    """The unique steady state, or None when productivity is at or above the
    upper threshold. At exactly the lower threshold investors are
    indifferent; the land-only split (phi = 0) is reported and flagged."""
    th = thresholds(p)
    a = p.productivity
    if a <= th.low:
        price = p.beta * p.rent / (1.0 - p.beta)
        wealth = p.rent * p.land_supply / (1.0 - p.beta)
        return SteadyState(
            regime=RegimeKind.LAND_ONLY,
            rate=1.0 / p.beta,
            price=price,
            wealth=wealth,
            capital=0.0,
            phi=0.0,
            phi_indeterminate=(a == th.low),
        )
    if a >= th.high:
        return None
    rate = balanced_rate(p)
    price = p.rent / (rate - 1.0)
    wealth = price * p.land_supply / (p.beta * (1.0 - p.pi))
    return SteadyState(
        regime=RegimeKind.FUNDAMENTAL_BALANCED,
        rate=rate,
        price=price,
        wealth=wealth,
        capital=p.beta * p.pi * wealth,
        phi=p.pi,
    )


def longrun_rate(p: BareBonesParams) -> float:
    """Long-run land return: 1/beta below the lower threshold, the balanced
    rate between the thresholds, the price-map slope rho at and above the
    upper one. Continuous at both cutoffs."""
    th = thresholds(p)
    if p.productivity <= th.low:
        return 1.0 / p.beta
    if p.productivity >= th.high:
        return price_slope(p)
    return balanced_rate(p)


def min_wealth(p: BareBonesParams) -> float:
    """Lowest initial wealth at which full investment is arbitrage-free:
    the land return on the full-investment path is
    rho + DX / ((1-beta+beta pi) beta (1-pi) W_t), decreasing in wealth, and
    must not exceed A + 1 - delta. Wealth at or above this bound stays
    there, so feasibility at t=0 is feasibility forever."""
    return (p.rent * p.land_supply) / (
        (1.0 - p.beta) * p.beta * (1.0 - p.pi) * capital_return(p)
    )


def _snapped_slope(p: BareBonesParams) -> float:
    rho = price_slope(p)
    return 1.0 if abs(rho - 1.0) <= UNIT_SLOPE_TOL else rho


def _wealth_drift(p: BareBonesParams) -> float:
    return p.rent * p.land_supply / _savings_split(p)


def _arbitrage_violations(
    price: np.ndarray, rate: np.ndarray, capital_ret: np.ndarray
) -> list[int]:
    """Periods t whose land return R_t beats the capital return at t+1
    (capital bought at t pays at t+1). A step into a non-finite price is an
    overflow of the path, not an arbitrage, and is not counted."""
    beats = rate[:-1] > capital_ret[1:] * (1.0 + 1e-12)
    return np.flatnonzero(beats & np.isfinite(price[1:])).tolist()


def _full_investment_path(
    p: BareBonesParams, w0: float, horizon: int, meta: dict
) -> EquilibriumPath:
    w = affine_path(_snapped_slope(p), _wealth_drift(p), w0, horizon)
    price = p.beta * (1.0 - p.pi) * w / p.land_supply
    dividend = np.full(horizon + 1, p.rent)
    path = EquilibriumPath(
        price=price,
        dividend=dividend,
        rate=gross_rates(price, dividend),
        wealth=w,
        capital=p.beta * p.pi * w,
        phi=np.full(horizon + 1, p.pi),
        meta=meta,
    )
    return path


def simulate_forward(
    p: BareBonesParams, w0: float, horizon: int, require_feasible: bool = True
) -> EquilibriumPath:
    """Full-investment path from initial wealth w0.

    Requires productivity above the lower threshold (otherwise phi = pi is
    not an equilibrium). Starts below the feasibility bound are rejected
    unless ``require_feasible`` is off, in which case the path is produced
    and flagged (early land returns then exceed the capital return).
    """
    th = thresholds(p)
    if not (p.productivity > th.low):
        raise ValueError(
            f"full investment needs productivity > {th.low}, got {p.productivity}"
        )
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (w0 > 0.0):
        raise ValueError("w0 must be positive")
    bound = min_wealth(p)
    feasible = w0 >= bound
    if require_feasible and not feasible:
        raise FeasibilityError(
            f"initial wealth {w0} is below the feasibility bound {bound}; "
            "land would outperform capital in early periods"
        )
    meta = {
        "model": "barebones",
        "w_bound": bound,
        "feasible": feasible,
        "regime": classify_regime(p).kind.value,
    }
    return _full_investment_path(p, w0, horizon, meta)


def simulate_from_price(
    p: BareBonesParams, p0: float, horizon: int, require_feasible: bool = False
) -> EquilibriumPath:
    """Full-investment path started from a land price level instead of
    wealth (w0 = p0 X / (beta (1-pi))). Feasibility is reported, not
    enforced, by default: this is the entry point for price-map iteration
    exercises whose starting price may sit below the bound."""
    if not (p0 > 0.0):
        raise ValueError("p0 must be positive")
    w0 = p0 * p.land_supply / (p.beta * (1.0 - p.pi))
    return simulate_forward(p, w0, horizon, require_feasible=require_feasible)


def steady_path(p: BareBonesParams, horizon: int) -> EquilibriumPath:
    """Constant path at the steady state (errors where none exists)."""
    ss = steady_state(p)
    if ss is None:
        raise ValueError("no steady state at or above the upper threshold")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = horizon + 1
    price = np.full(n, ss.price)
    dividend = np.full(n, p.rent)
    return EquilibriumPath(
        price=price,
        dividend=dividend,
        rate=gross_rates(price, dividend),
        wealth=np.full(n, ss.wealth),
        capital=np.full(n, ss.capital),
        phi=np.full(n, ss.phi),
        meta={"model": "barebones", "regime": ss.regime.value, "steady": True},
    )


class ConstructedEquilibrium(NamedTuple):
    prephase_length: int       # j: periods of interior phi before full investment
    w_switch: float            # wealth at the switch to full investment
    path: EquilibriumPath      # re-indexed so the economy starts at t = 0


def construct_equilibrium(
    p: BareBonesParams, k0: float, horizon: int, max_prephase: int = 100_000
) -> ConstructedEquilibrium:
    """Build the equilibrium from an initial capital stock k0 >= 0.

    The economy runs j periods with interior investment shares (capital and
    land returns equal, so wealth just grows at beta (A+1-delta)) and then
    switches to full investment at wealth W0. For each candidate j the
    closing equation

        (1 - beta^(j+1) (1-pi)) W0 = beta^j (R_k^(j+1) k0 + D X sum_{i<=j} R_k^i)

    pins W0; j is accepted when W0 clears the feasibility bound, the
    pre-switch wealth does not (so the switch happens exactly at j), and
    every pre-phase share lies strictly inside (0, pi). The scan terminates
    because the closing equation's numerator grows without bound in j.
    """
    th = thresholds(p)
    if not (p.productivity > th.low):
        raise ValueError(
            f"construction needs productivity > {th.low}, got {p.productivity}"
        )
    if not (k0 >= 0.0):
        raise ValueError("k0 must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    rk = capital_return(p)
    brk = p.beta * rk           # pre-phase wealth growth factor, > 1 here
    bound = min_wealth(p)
    upper = brk * bound
    dx = p.rent * p.land_supply

    a = rk          # beta^j * R_k^(j+1)
    h = 1.0         # beta^j * sum_{i<=j} R_k^i
    bpow = p.beta   # beta^(j+1)
    scanned = 0
    rejected: list[tuple[int, float]] = []

    def prephase_shares(j: int, w0: float) -> np.ndarray | None:
        # 1 - phi_{-i} = beta^i (1-pi) + (DX / w0) * beta^(i-1) sum_{s<i} R_k^s
        shares = np.empty(j)
        u = 1.0      # beta^(i-1) * sum_{s<i} R_k^s at i = 1
        bi = p.beta  # beta^i
        for i in range(1, j + 1):
            one_minus = bi * (1.0 - p.pi) + (dx / w0) * u
            phi = 1.0 - one_minus
            if not (0.0 < phi < p.pi):
                return None
            shares[j - i] = phi   # index j-i is economy time for phi_{-i}
            u = brk * u + bi
            bi *= p.beta
        return shares

    found: tuple[int, float, np.ndarray] | None = None
    for j in range(max_prephase + 1):
        scanned = j
        num = a * k0 + dx * h
        w0 = num / (1.0 - bpow * (1.0 - p.pi))
        if w0 >= bound and (j == 0 or w0 < upper):
            shares = prephase_shares(j, w0)
            if shares is not None:
                found = (j, w0, shares)
                break
            rejected.append((j, w0))
        if num > upper:
            break
        a *= brk
        h = brk * h + bpow
        bpow *= p.beta

    if found is None:
        raise ConstructionError(
            "no pre-phase length closes the construction "
            f"(scanned j = 0..{scanned}; feasibility window "
            f"[{bound}, {upper}))",
            diagnostics={
                "scanned_up_to": scanned,
                "w_bound": bound,
                "w_upper": upper,
                "rejected_candidates": rejected,
                "k0": k0,
            },
        )

    j, w0, shares = found
    n = horizon + 1
    phi = np.full(n, p.pi)
    if j <= horizon:
        wealth = np.empty(n)
        wealth[j:] = affine_path(_snapped_slope(p), _wealth_drift(p), w0, horizon - j)
        for s in range(j - 1, -1, -1):
            wealth[s] = wealth[s + 1] / brk
        phi[:j] = shares
    else:
        wealth = affine_path(brk, 0.0, w0 * math.exp(-j * math.log(brk)), horizon)
        phi[:] = shares[:n]

    price = p.beta * (1.0 - phi) * wealth / p.land_supply
    dividend = np.full(n, p.rent)
    capital = p.beta * phi * wealth
    rate = gross_rates(price, dividend)
    pre_end = min(j, n - 1)
    resid = 0.0
    if pre_end > 0:
        resid = float(np.max(np.abs(rate[:pre_end] - rk)))
        rate[:pre_end] = rk   # interior shares equalize the returns exactly
    path = EquilibriumPath(
        price=price,
        dividend=dividend,
        rate=rate,
        wealth=wealth,
        capital=capital,
        phi=phi,
        meta={
            "model": "barebones",
            "prephase_length": j,
            "w_switch": w0,
            "w_bound": bound,
            "k0": k0,
            "prephase_rate_residual": resid,
            "regime": classify_regime(p).kind.value,
        },
    )
    return ConstructedEquilibrium(prephase_length=j, w_switch=w0, path=path)


# --- productivity shocks and time variation ------------------------------


def simulate_regime_switch(
    p_base: BareBonesParams,
    p_shock: BareBonesParams,
    t_on: int,
    t_off: int,
    horizon: int,
) -> EquilibriumPath:
    """Start at the base steady state and apply the shock parameters over
    the window [t_on, t_off).

    The base economy must sit strictly between the thresholds (its steady
    state exists and full investment applies); shock productivity must
    exceed the lower threshold. The window may push the economy into the
    bubbly region and back; prices then boom and revert toward the base
    steady state.
    """
    for name in ("pi", "beta", "delta", "land_supply"):
        if getattr(p_base, name) != getattr(p_shock, name):
            raise ValueError(f"base and shock must agree on {name}")
    th = thresholds(p_base)
    if not (th.low < p_base.productivity < th.high):
        raise ValueError(
            "base productivity must lie strictly between the thresholds "
            f"({th.low}, {th.high}); transition dynamics outside the "
            "full-investment region are not defined"
        )
    if not (p_shock.productivity > th.low):
        raise ValueError("shock productivity must exceed the lower threshold")
    if not (0 <= t_on <= t_off <= horizon + 1):
        raise ValueError("need 0 <= t_on <= t_off <= horizon + 1")

    ss = steady_state(p_base)
    n = horizon + 1
    in_window = np.zeros(n, dtype=bool)
    in_window[t_on:t_off] = True

    dividend = np.where(in_window, p_shock.rent, p_base.rent)
    slope = np.where(in_window, _snapped_slope(p_shock), _snapped_slope(p_base))
    drift = np.where(in_window, _wealth_drift(p_shock), _wealth_drift(p_base))
    wealth = affine_path(slope[1:], drift[1:], ss.wealth, horizon)
    price = p_base.beta * (1.0 - p_base.pi) * wealth / p_base.land_supply
    rate = gross_rates(price, dividend)
    cap = np.where(in_window, capital_return(p_shock), capital_return(p_base))
    violations = _arbitrage_violations(price, rate, cap)

    return EquilibriumPath(
        price=price,
        dividend=dividend,
        rate=rate,
        wealth=wealth,
        capital=p_base.beta * p_base.pi * wealth,
        phi=np.full(n, p_base.pi),
        meta={
            "model": "barebones_switch",
            "window": (t_on, t_off),
            "arbitrage_violations": violations,
            "base_steady_price": ss.price,
        },
    )


class TimeVaryingResult(NamedTuple):
    path: EquilibriumPath
    price_rent: np.ndarray      # P_t / D_t
    slope_ratio: np.ndarray     # price-rent map slope each period (t >= 1)
    bubble: bool                # liminf of the slope over the tail exceeds 1
    violations: tuple[int, ...]  # periods where land outran capital


def simulate_timevarying(
    p: BareBonesParams,
    w0: float,
    horizon: int,
    productivity: Sequence | None = None,
    rent: Sequence | None = None,
    require_feasible: bool = True,
) -> TimeVaryingResult:
    """Full-investment dynamics with productivity and rent sequences.

    Wealth obeys (1-beta+beta pi) W_t = beta pi (A_t+1-delta) W_{t-1} + D_t X.
    The full-investment condition is checked as R_t <= A_{t+1} + 1 - delta
    (capital bought at t pays at t+1); violations raise unless
    ``require_feasible`` is off, in which case they are reported. With
    constant sequences this reduces exactly to ``simulate_forward``.

    The bubble verdict compares the price-rent map slope
    beta pi (A_t+1-delta) / ((1-beta+beta pi) G_t) with 1 over the final
    tenth of the horizon (a liminf surrogate).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (w0 > 0.0):
        raise ValueError("w0 must be positive")
    a_seq = productivity if productivity is not None else constant(p.productivity)
    d_seq = rent if rent is not None else constant(p.rent)
    n = horizon + 1
    a = a_seq.values(n)
    d = d_seq.values(n)
    if np.any(a < 0.0):
        raise ValueError("productivity sequence must be nonnegative")
    if np.any(d <= 0.0):
        raise ValueError("rent sequence must be positive")

    split = _savings_split(p)
    slope = p.beta * p.pi * (a[1:] + 1.0 - p.delta) / split
    wealth = affine_path(slope, d[1:] * p.land_supply / split, w0, horizon)
    price = p.beta * (1.0 - p.pi) * wealth / p.land_supply
    rate = gross_rates(price, d)

    violations = tuple(_arbitrage_violations(price, rate, a + 1.0 - p.delta))
    if require_feasible and violations:
        raise FeasibilityError(
            f"land return exceeds the capital return at t = {violations[0]}; "
            "full investment is not an equilibrium on this path"
        )

    growth = d[1:] / d[:-1]
    slope_ratio = p.beta * p.pi * (a[1:] + 1.0 - p.delta) / (split * growth)
    m = max(10, slope_ratio.size // 10)
    bubble = bool(np.min(slope_ratio[-m:]) > 1.0)

    path = EquilibriumPath(
        price=price,
        dividend=d,
        rate=rate,
        wealth=wealth,
        capital=p.beta * p.pi * wealth,
        phi=np.full(n, p.pi),
        meta={"model": "barebones_timevarying", "bubble": bubble},
    )
    return TimeVaryingResult(
        path=path,
        price_rent=path.price_rent(),
        slope_ratio=slope_ratio,
        bubble=bubble,
        violations=violations,
    )


def timevarying_threshold(
    pi: float, beta: float, delta: float, growth: float
) -> float:
    """Productivity level where the price-rent map slope crosses 1 under
    constant rent growth G: beta pi (A+1-delta) = (1-beta+beta pi) G, i.e.

        A = (1-beta) G / (beta pi) + G - 1 + delta.

    At G = 1 this reduces to the upper productivity threshold."""
    if not (0.0 < pi <= 1.0):
        raise ValueError(f"pi must lie in (0,1], got {pi}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0,1], got {delta}")
    if not (growth > 0.0):
        raise ValueError("growth must be positive")
    return (1.0 - beta) * growth / (beta * pi) + growth - 1.0 + delta
