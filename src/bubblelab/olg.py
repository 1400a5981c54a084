"""Pure-bubble overlapping-generations economies.

Two-period lives, Cobb-Douglas preferences (1-beta) log y + beta log z,
endowments (a, b), and a single intrinsically useless asset in unit supply.
With no dividends the asset's entire value is bubble. A stationary bubbly
equilibrium exists iff the young's desired saving at a unit price exceeds
the old's endowment value, i.e. beta*a > (1-beta)*b, in which case the
stationary price is P = beta*a - (1-beta)*b and every start P_0 in
(0, P] continues an equilibrium; starts below the stationary price deflate
to zero (asymptotically bubbleless) while the price level itself stays
positive throughout.

The stochastic variant keeps the bubble alive each period with probability
``survival``; risk-neutral-in-logs pricing delivers a constant pre-collapse
price and a geometric collapse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath
from .recur import affine_path


@dataclass(frozen=True)
class SamuelsonParams:
    beta: float          # weight on old-age consumption
    young_endow: float   # a
    old_endow: float     # b

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not (self.young_endow > 0.0):
            raise ValueError("young_endow must be positive")
        if not (self.old_endow > 0.0):
            raise ValueError("old_endow must be positive")


class SamuelsonEquilibria(NamedTuple):
    """The full equilibrium set: autarky always exists; the bubbly interval
    (0, stationary_price] exists iff stationary_price is not None."""

    stationary_price: float | None
    fundamental_exists: bool = True

    @property
    def has_bubbly(self) -> bool:
        return self.stationary_price is not None

    @property
    def bubbly_interval(self) -> tuple[float, float] | None:
        if self.stationary_price is None:
            return None
        return (0.0, self.stationary_price)


def _stationary_level(p: SamuelsonParams) -> float:
    # the young's saving at a unit price less the old's endowment value
    return p.beta * p.young_endow - (1.0 - p.beta) * p.old_endow


def samuelson_equilibria(p: SamuelsonParams) -> SamuelsonEquilibria:
    level = _stationary_level(p)
    if level > 0.0:
        return SamuelsonEquilibria(stationary_price=level)
    return SamuelsonEquilibria(stationary_price=None)


def autarky_rate(p: SamuelsonParams) -> float:
    """Marginal rate of substitution at the endowment point,
    (1-beta)*b / (beta*a). Below 1 exactly when bubbly equilibria exist."""
    return (1.0 - p.beta) * p.old_endow / (p.beta * p.young_endow)


def young_demand(p: SamuelsonParams, price_now: float, price_next: float) -> float:
    """Young-age consumption when facing prices (P_t, P_{t+1})."""
    return (1.0 - p.beta) * (p.young_endow + (price_now / price_next) * p.old_endow)


def samuelson_price_path(
    p: SamuelsonParams, p0: float, horizon: int
) -> EquilibriumPath:
    """Deterministic equilibrium price path from P_0 = p0.

    Admissible starts are exactly (0, stationary_price]; anything else is
    rejected (prices above the stationary level explode and violate the
    young's budget in finite time). A start below it deflates toward zero;
    a horizon that reaches a price below the smallest double is rejected.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    eq = samuelson_equilibria(p)
    if not eq.has_bubbly:
        raise ValueError(
            "no bubbly equilibria: beta*young_endow <= (1-beta)*old_endow"
        )
    if not (0.0 < p0 <= eq.stationary_price):
        raise ValueError(
            f"p0 must lie in (0, {eq.stationary_price}], got {p0}"
        )
    # market clearing in x_t = 1/P_t: x_{t+1} = (beta*a*x_t - 1) / ((1-beta)*b)
    ob = (1.0 - p.beta) * p.old_endow
    slope, drift = p.beta * p.young_endow / ob, -1.0 / ob
    if math.isinf(slope) or math.isinf(drift):
        raise ValueError(f"the map of 1/P overflows: slope {slope}, drift {drift}")
    price = 1.0 / affine_path(slope, drift, 1.0 / p0, horizon)
    zero = np.flatnonzero(price == 0.0)
    if zero.size:
        raise ValueError(
            f"the price underflows to zero at t = {zero[0]}: the equilibrium "
            "price is positive but below the smallest double"
        )
    return EquilibriumPath(price=price, dividend=np.zeros(horizon + 1))


# --- stochastic variant -------------------------------------------------


@dataclass(frozen=True)
class WeilParams:
    beta: float
    young_endow: float
    old_endow: float
    survival: float      # per-period probability the bubble persists

    def __post_init__(self):
        SamuelsonParams(self.beta, self.young_endow, self.old_endow)
        if not (0.0 < self.survival <= 1.0):
            raise ValueError(f"survival must lie in (0,1], got {self.survival}")

    def deterministic(self) -> SamuelsonParams:
        return SamuelsonParams(self.beta, self.young_endow, self.old_endow)


def weil_stationary_price(p: WeilParams) -> float | None:
    """Constant pre-collapse price, or None when no stochastic bubble can
    be sustained (survival * beta * a <= (1-beta) * b)."""
    ub = p.survival * p.beta
    num = ub * p.young_endow - (1.0 - p.beta) * p.old_endow
    if num <= 0.0:
        return None
    return num / (1.0 - p.beta + ub)


def weil_foc_residual(p: WeilParams, price: float) -> float:
    """Stationary portfolio first-order condition
    -(1-beta)/(a-P) + survival*beta/(b+P); zero at the equilibrium price."""
    return (
        -(1.0 - p.beta) / (p.young_endow - price)
        + p.survival * p.beta / (p.old_endow + price)
    )


def weil_sample_path(p: WeilParams, seed: int, horizon: int) -> EquilibriumPath:
    """One realized path: the price holds at the stationary level until the
    first failure draw, then is zero forever. One uniform draw per period
    while the bubble is alive; none afterwards.

    ``meta['collapse_time']`` is the first zero-price period, or None if the
    bubble survived the whole horizon. Expected collapse time is
    1/(1-survival).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    level = weil_stationary_price(p)
    if level is None:
        raise ValueError(
            "no stochastic bubble: survival*beta*young_endow <= (1-beta)*old_endow"
        )
    rng = np.random.default_rng(seed)
    price = np.full(horizon + 1, level)
    collapse: int | None = None
    for t in range(1, horizon + 1):
        if rng.random() >= p.survival:
            collapse = t
            price[t:] = 0.0
            break
    path = EquilibriumPath(price=price, dividend=np.zeros(horizon + 1))
    path.meta["collapse_time"] = collapse
    path.meta["mean_collapse_time"] = (
        math.inf if p.survival == 1.0 else 1.0 / (1.0 - p.survival)
    )
    return path
