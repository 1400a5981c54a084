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
Land's long-run return is the steady state's rate where one exists, else
rho; it is continuous at both cutoffs.

``construct_equilibrium`` assembles the equilibrium from an arbitrary
initial capital stock: a finite run of periods with interior phi (land and
capital returns equalized) whose length j is found by scanning the closing
equation, followed by full investment forever.

The time-varying extension drives (A_t, D_t) as sequences; the price-rent
ratio then follows an affine recurrence with slope
beta pi (A_t+1-delta) / ((1-beta+beta pi) G_t), G_t the rent growth factor,
and the bubble verdict is the yield sum's, exact from that slope's limit
when the sequences are generators.

``classify_regime`` reports R < G_d < G as ``recur.NecessityTriple``
(re-exported here): R is the balanced rate, G_d = 1 as rents are constant,
and G is rho in the bubbly regime, else 1, so ``holds`` is ``has_bubble``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath
from .recur import UNIT_SLOPE_TOL, AffineRecurrence, NecessityTriple, SeriesClass
from .recur import SeriesKind, affine_path, yield_test
from .sequences import Sequence, constant, tail_asymptotics


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
    """Land economy inputs: investment probability pi, saving rate beta,
    depreciation delta, capital productivity A, land rent D, land supply X."""

    pi: float
    beta: float
    delta: float
    productivity: float  # A
    rent: float          # D
    land_supply: float = 1.0  # X

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


def thresholds(p: BareBonesParams) -> Thresholds:
    """Both productivity cutoffs, of scalar or array fields; defined for pi
    in (0, 1] (they coincide at pi = 1)."""
    return Thresholds(
        low=(1.0 - p.beta) / p.beta + p.delta,
        high=(1.0 - p.beta) / (p.beta * p.pi) + p.delta,
    )


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


class Regime(NamedTuple):
    kind: RegimeKind
    necessity: NecessityTriple

    @property
    def has_bubble(self) -> bool:
        return self.kind is RegimeKind.BUBBLY_UNBALANCED


def _regime_kind(p: BareBonesParams) -> RegimeKind:
    rho = price_slope(p)
    if p.productivity <= thresholds(p).low:
        return RegimeKind.LAND_ONLY
    if abs(rho - 1.0) <= UNIT_SLOPE_TOL:
        return RegimeKind.BOUNDARY_NO_BUBBLE
    if rho < 1.0:
        return RegimeKind.FUNDAMENTAL_BALANCED
    return RegimeKind.BUBBLY_UNBALANCED


def classify_regime(p: BareBonesParams) -> Regime:
    """Which of the four long-run regimes the parameters produce. The
    boundary is detected on the price-map slope (|rho - 1| within the unit
    tolerance), keeping it consistent with the recurrence classifier."""
    kind = _regime_kind(p)
    necessity = NecessityTriple(
        fundamental_rate=balanced_rate(p),
        dividend_growth=1.0,
        economy_growth=price_slope(p) if kind is RegimeKind.BUBBLY_UNBALANCED else 1.0,
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


def _land_only_rate(p: BareBonesParams) -> float:
    return 1.0 / p.beta


def _land_only_price(p: BareBonesParams) -> float:
    return p.beta * p.rent / (1.0 - p.beta)


def _balanced_price(p: BareBonesParams, rate: float) -> float:
    # R P = P + D at the balanced rate
    return p.rent / (rate - 1.0)


def _wealth_at_price(p: BareBonesParams, p0: float) -> float:
    """Full-investment wealth whose land price is p0: W = p0 X / (beta (1-pi))."""
    if not (p0 > 0.0):
        raise ValueError("p0 must be positive")
    return p0 * p.land_supply / (p.beta * (1.0 - p.pi))


def steady_state(p: BareBonesParams) -> SteadyState | None:
    """The unique steady state, which exists only in the land-only and
    fundamental balanced regimes of ``classify_regime``; None otherwise. At
    exactly the lower threshold investors are indifferent; the land-only
    split (phi = 0) is reported and flagged."""
    kind = _regime_kind(p)
    if kind is RegimeKind.LAND_ONLY:
        return SteadyState(
            regime=kind,
            rate=_land_only_rate(p),
            price=_land_only_price(p),
            wealth=p.rent * p.land_supply / (1.0 - p.beta),
            capital=0.0,
            phi=0.0,
            phi_indeterminate=(p.productivity == thresholds(p).low),
        )
    if kind is not RegimeKind.FUNDAMENTAL_BALANCED:
        return None
    rate = balanced_rate(p)
    price = _balanced_price(p, rate)
    wealth = _wealth_at_price(p, price)
    return SteadyState(
        regime=kind,
        rate=rate,
        price=price,
        wealth=wealth,
        capital=p.beta * p.pi * wealth,
        phi=p.pi,
    )


def longrun_rate(p: BareBonesParams) -> float:
    """Land's long-run return: the steady state's rate where one exists, else rho."""
    ss = steady_state(p)
    return price_slope(p) if ss is None else ss.rate


def min_wealth(p: BareBonesParams) -> float:
    """Lowest initial wealth at which full investment is arbitrage-free:
    the land return on the full-investment path is
    rho + DX / ((1-beta+beta pi) beta (1-pi) W_t), decreasing in wealth, and
    must not exceed A + 1 - delta. Wealth at or above this bound stays
    there, so feasibility at t=0 is feasibility forever."""
    return (p.rent * p.land_supply) / (
        (1.0 - p.beta) * p.beta * (1.0 - p.pi) * capital_return(p)
    )


def _arbitrage_violations(
    price: np.ndarray, rate: np.ndarray, capital_ret: np.ndarray
) -> list[int]:
    """Periods t whose land return R_t beats the capital return at t+1
    (capital bought at t pays at t+1). A step into a non-finite price is an
    overflow of the path, not an arbitrage, and is not counted."""
    beats = rate[:-1] > capital_ret[1:] * (1.0 + 1e-12)
    return np.flatnonzero(beats & np.isfinite(price[1:])).tolist()


def _wealth_path(p: BareBonesParams, a, d, w0: float, horizon: int) -> np.ndarray:
    """Full-investment wealth W_0..W_horizon from W_0 = w0:

        (1 - beta + beta pi) W_t = beta pi (A_t + 1 - delta) W_{t-1} + D_t X

    ``a`` and ``d`` are scalars or the per-period A_t, D_t for t = 0..horizon
    (entry 0 is unused). A slope within the unit tolerance of 1 steps as
    exactly 1, as ``classify_regime`` reads it."""
    split = _savings_split(p)
    slope = p.beta * p.pi * (a + 1.0 - p.delta) / split
    slope = np.where(np.abs(slope - 1.0) <= UNIT_SLOPE_TOL, 1.0, slope)
    drift = d * p.land_supply / split
    steps = (x if np.ndim(x) == 0 else x[1:] for x in (slope, drift))
    return affine_path(*steps, w0, horizon)


def _land_path(
    p: BareBonesParams,
    wealth: np.ndarray,
    dividend: np.ndarray,
    phi: np.ndarray,
) -> EquilibriumPath:
    """The path from wealth and investment shares phi_t: land takes
    P_t X = beta (1 - phi_t) W_t and capital K_{t+1} = beta phi_t W_t."""
    price = p.beta * (1.0 - phi) * wealth / p.land_supply
    return EquilibriumPath(
        price=price,
        dividend=dividend,
        wealth=wealth,
        capital=p.beta * phi * wealth,
        phi=phi,
    )


def _full_investment(
    p: BareBonesParams, a: np.ndarray, d: np.ndarray, w0: float
) -> tuple[EquilibriumPath, list[int]]:
    """Full-investment path under per-period A_t and D_t (arrays of equal
    length), with the periods whose land return beats capital's."""
    n = a.size
    path = _land_path(p, _wealth_path(p, a, d, w0, n - 1), d, np.full(n, p.pi))
    return path, _arbitrage_violations(path.price, path.rate, a + 1.0 - p.delta)


def _require_investment(p: BareBonesParams, what: str) -> None:
    low = thresholds(p).low
    if not (p.productivity > low):
        raise ValueError(f"{what} needs productivity > {low}, got {p.productivity}")


def simulate_from_price(
    p: BareBonesParams, p0: float, horizon: int, require_feasible: bool = False
) -> EquilibriumPath:
    """Constant-parameter full-investment path started from a land price
    level instead of wealth. Feasibility is not enforced by default: this is
    the entry point for price-map iteration exercises whose starting price
    may sit below the bound."""
    w0 = _wealth_at_price(p, p0)
    return simulate_timevarying(p, w0, horizon, require_feasible=require_feasible).path


def steady_path(p: BareBonesParams, horizon: int) -> EquilibriumPath:
    """Constant path at the steady state (errors where none exists)."""
    ss = steady_state(p)
    if ss is None:
        raise ValueError("no steady state: the price-map slope is at or above 1")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n = horizon + 1
    price = np.full(n, ss.price)
    dividend = np.full(n, p.rent)
    return EquilibriumPath(
        price=price,
        dividend=dividend,
        wealth=np.full(n, ss.wealth),
        capital=np.full(n, ss.capital),
        phi=np.full(n, ss.phi),
    )


class ConstructedEquilibrium(NamedTuple):
    prephase_length: int       # j: periods of interior phi before full investment
    w_switch: float            # wealth at the switch to full investment
    path: EquilibriumPath      # re-indexed so the economy starts at t = 0
    prephase_rate_residual: float  # largest pre-phase |land - capital return|


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
    _require_investment(p, "construction")
    if not (k0 >= 0.0):
        raise ValueError("k0 must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    rk = capital_return(p)
    brk = p.beta * rk           # pre-phase wealth growth factor, > 1 here
    bound = min_wealth(p)
    upper = brk * bound
    dx = p.rent * p.land_supply

    a = rk            # beta^j * R_k^(j+1)
    h = [1.0]         # h[j] = beta^j * sum_{i<=j} R_k^i
    bpow = [p.beta]   # bpow[j] = beta^(j+1)
    scanned = 0
    rejected: list[tuple[int, float]] = []
    found: tuple[int, float, np.ndarray] | None = None
    for j in range(max_prephase + 1):
        scanned = j
        num = a * k0 + dx * h[j]
        w0 = num / (1.0 - bpow[j] * (1.0 - p.pi))
        if w0 >= bound and (j == 0 or w0 < upper):
            # 1 - phi_{-i} = beta^i (1-pi) + (DX / w0) h[i-1] for i = 1..j,
            # reversed so that index j-i is economy time for phi_{-i}
            one_minus = np.array(bpow[:j]) * (1.0 - p.pi) + (dx / w0) * np.array(h[:j])
            shares = (1.0 - one_minus)[::-1]
            if np.all((0.0 < shares) & (shares < p.pi)):
                found = (j, w0, shares)
                break
            rejected.append((j, w0))
        if num > upper:
            break
        a *= brk
        h.append(brk * h[j] + bpow[j])
        bpow.append(bpow[j] * p.beta)

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
        wealth[j:] = _wealth_path(p, p.productivity, p.rent, w0, horizon - j)
        for s in range(j - 1, -1, -1):
            wealth[s] = wealth[s + 1] / brk
        phi[:j] = shares
    else:
        wealth = affine_path(brk, 0.0, w0 * math.exp(-j * math.log(brk)), horizon)
        phi[:] = shares[:n]

    path = _land_path(p, wealth, np.full(n, p.rent), phi)
    pre_end = min(j, n - 1)
    resid = 0.0
    if pre_end > 0:
        resid = float(np.max(np.abs(path.rate[:pre_end] - rk)))
        path.rate[:pre_end] = rk   # interior shares equalize the returns exactly
    return ConstructedEquilibrium(
        prephase_length=j, w_switch=w0, path=path, prephase_rate_residual=resid
    )


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
    ss = steady_state(p_base)
    if ss is None or ss.regime is not RegimeKind.FUNDAMENTAL_BALANCED:
        raise ValueError(
            "base productivity must lie strictly between the thresholds "
            f"({th.low}, {th.high}); transition dynamics outside the "
            "full-investment region are not defined"
        )
    if not (p_shock.productivity > th.low):
        raise ValueError("shock productivity must exceed the lower threshold")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (0 <= t_on <= t_off <= horizon + 1):
        raise ValueError("need 0 <= t_on <= t_off <= horizon + 1")

    in_window = np.zeros(horizon + 1, dtype=bool)
    in_window[t_on:t_off] = True
    path, violations = _full_investment(
        p_base,
        np.where(in_window, p_shock.productivity, p_base.productivity),
        np.where(in_window, p_shock.rent, p_base.rent),
        ss.wealth,
    )
    path.meta["arbitrage_violations"] = violations
    return path


class TimeVaryingResult(NamedTuple):
    path: EquilibriumPath
    slope_ratio: np.ndarray     # price-rent map slope each period (t >= 1)
    series: SeriesClass         # the yield sum's verdict
    violations: tuple[int, ...]  # periods where land outran capital

    @property
    def bubble(self) -> bool:
        return self.series.kind is SeriesKind.CONVERGENT


def _yield_tail(
    p: BareBonesParams, a_seq: Sequence, d_seq: Sequence
) -> tuple[float, float] | None:
    """The exact tail (ratio, power) of the yields D_t / P_t, from the limit
    slope L = beta pi (A_inf+1-delta) / ((1-beta+beta pi) G_inf) of the
    price-rent map; None where only the path can tell: an explicit
    sequence, or L within the unit tolerance of 1 on a slope that moves."""
    tails = tail_asymptotics(a_seq), tail_asymptotics(d_seq)
    if None in tails:
        return None
    (ra, ka), (rd, kd) = tails
    if ra > 1.0 or (ra == 1.0 and ka > 0.0):
        return 0.0, 0.0   # A_t grows: P_t / D_t outgrows every geometric rate
    a_inf = a_seq.scale if (ra, ka) == (1.0, 0.0) else 0.0
    slope = p.beta * p.pi * (a_inf + 1.0 - p.delta) / (_savings_split(p) * rd)
    if abs(slope - 1.0) <= UNIT_SLOPE_TOL:
        # a constant unit slope grows P_t / D_t linearly: yields ~ 1/t
        return (1.0, -1.0) if (ra, ka, kd) == (1.0, 0.0, 0.0) else None
    return (1.0 / slope, 0.0) if slope > 1.0 else (1.0, 0.0)


def simulate_timevarying(
    p: BareBonesParams,
    w0: float,
    horizon: int,
    productivity: Sequence | None = None,
    rent: Sequence | None = None,
    require_feasible: bool = True,
) -> TimeVaryingResult:
    """Full-investment dynamics from initial wealth w0, with productivity
    and rent sequences (each held at its ``p`` value when not given).

    Wealth obeys (1-beta+beta pi) W_t = beta pi (A_t+1-delta) W_{t-1} + D_t X.
    Without a productivity sequence, productivity must exceed the lower
    threshold: parameters held constant below it never admit full
    investment. The full-investment condition is checked as
    R_t <= A_{t+1} + 1 - delta (capital bought at t pays at t+1); violations
    raise unless ``require_feasible`` is off, in which case they are
    reported. A wealth slope within the unit tolerance of 1 steps as exactly
    1, as ``classify_regime`` reads it.

    The bubble verdict is ``recur.yield_test`` on the yields D_t / P_t.
    With generator sequences it is exact, from the limit L of the price-rent
    map slope beta pi (A_t+1-delta) / ((1-beta+beta pi) G_t): growing A_t
    or L > 1 is a bubble, L < 1 is none, and a constant slope within the
    unit tolerance of 1 is the boundary ``classify_regime`` draws, no
    bubble. Explicit sequences, and a slope that only tends to 1, are
    judged on the path's own yields.
    """
    if productivity is None:
        _require_investment(p, "full investment")
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

    path, violations = _full_investment(p, a, d, w0)
    if require_feasible and violations:
        raise FeasibilityError(
            f"land return exceeds the capital return at t = {violations[0]}; "
            "full investment is not an equilibrium on this path"
        )

    growth = d[1:] / d[:-1]
    split = _savings_split(p)
    slope_ratio = p.beta * p.pi * (a[1:] + 1.0 - p.delta) / (split * growth)
    return TimeVaryingResult(
        path=path,
        slope_ratio=slope_ratio,
        series=yield_test(d[1:] / path.price[1:], _yield_tail(p, a_seq, d_seq)),
        violations=tuple(violations),
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
