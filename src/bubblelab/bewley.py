"""Two-type infinite-horizon exchange economy with an unbacked asset.

Endowments alternate deterministically between a (high) and b (low), both
growing at gross rate G; agents have CRRA utility with curvature gamma and
discount factor beta, and cannot short the asset. The high-endowment type
buys the entire unit supply each period and sells it next period, so the
asset changes hands every period and its price grows with the economy:
P_t = p * G^t.

Existence needs two strict inequalities: beta * G^(1-gamma) < 1 (discounted
marginal-utility growth, otherwise no interior portfolio choice) and
b < m * a with m = (beta * G^(1-gamma))^(1/gamma) (the poor must actually
want to sell). The price level is then p = (m*a - b) / (1 + m). The asset
pays nothing, so the whole price is bubble; the implied gross return is G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath


@dataclass(frozen=True)
class BewleyParams:
    beta: float
    gamma: float        # CRRA curvature; gamma = 1 is log utility
    growth: float       # gross endowment growth G
    rich_endow: float   # a
    poor_endow: float   # b

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not (self.gamma > 0.0):
            raise ValueError("gamma must be positive")
        if not (self.growth > 0.0):
            raise ValueError("growth must be positive")
        if not (self.rich_endow > self.poor_endow > 0.0):
            raise ValueError("need rich_endow > poor_endow > 0")


class BewleyEquilibrium(NamedTuple):
    exists: bool
    price_level: float | None   # p in P_t = p * G^t
    reason: str                  # why not, when exists is False


def bewley_price(p: BewleyParams) -> BewleyEquilibrium:
    """Detrended price of the unbacked asset, with existence diagnostics."""
    growth_factor = p.beta * p.growth ** (1.0 - p.gamma)
    if growth_factor >= 1.0:
        return BewleyEquilibrium(
            exists=False,
            price_level=None,
            reason=(
                f"beta * growth**(1-gamma) = {growth_factor} >= 1: "
                "discounted marginal utility does not shrink"
            ),
        )
    m = growth_factor ** (1.0 / p.gamma)
    if p.poor_endow >= m * p.rich_endow:
        return BewleyEquilibrium(
            exists=False,
            price_level=None,
            reason=(
                f"poor_endow {p.poor_endow} >= {m * p.rich_endow}: "
                "low-endowment agents would not sell the asset"
            ),
        )
    level = (m * p.rich_endow - p.poor_endow) / (1.0 + m)
    return BewleyEquilibrium(exists=True, price_level=level, reason="")


def bewley_path(p: BewleyParams, horizon: int) -> EquilibriumPath:
    """Equilibrium price path P_t = p * G^t (dividends identically zero)."""
    eq = bewley_price(p)
    if not eq.exists:
        raise ValueError(f"no equilibrium: {eq.reason}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    t = np.arange(horizon + 1, dtype=float)
    price = eq.price_level * p.growth**t
    return EquilibriumPath(price=price, dividend=np.zeros(horizon + 1))


def bewley_validate(p: BewleyParams, horizon: int = 1000, tol: float = 1e-10) -> dict:
    """Check both agents' Euler conditions period by period along the path.

    The buyer (currently rich) must be exactly indifferent:
        u'(c_rich_t) P_t = beta u'(c_poor_{t+1}) P_{t+1}
    (the buyer is poor next period). The seller (currently poor) must not
    want to buy: u'(c_poor_t) P_t >= beta u'(c_rich_{t+1}) P_{t+1}.
    Residuals are relative (lhs/rhs - 1), evaluated at each t from the logs
    of the two sides, log u'(c G^s) P_s = -gamma (log c + s log G) + log p
    + s log G: the levels under- or overflow over long horizons. Raises on
    violation, a NaN or an infinite buyer residual included: a failure here
    is an implementation bug, not a model outcome.
    """
    eq = bewley_price(p)
    if not eq.exists:
        raise ValueError(f"no equilibrium: {eq.reason}")
    lvl = eq.price_level
    c_rich = p.rich_endow - lvl   # detrended consumption while rich
    c_poor = p.poor_endow + lvl   # detrended consumption while poor
    if not (c_rich > 0.0 and c_poor > 0.0):
        raise AssertionError("consumptions must be positive at an equilibrium")

    t = np.arange(horizon, dtype=float)
    log_g = math.log(p.growth)

    def log_side(c: float, s: np.ndarray) -> np.ndarray:
        # log u'(c G^s) P_s for periods s
        return -p.gamma * (math.log(c) + s * log_g) + math.log(lvl) + s * log_g

    log_beta = math.log(p.beta)
    # buyer indifference, relative
    rich_resid = np.expm1(log_side(c_rich, t) - (log_beta + log_side(c_poor, t + 1.0)))
    # seller's slack, >= 0 when staying out of the asset is optimal
    poor_slack = np.expm1(log_side(c_poor, t) - (log_beta + log_side(c_rich, t + 1.0)))
    worst_rich = float(np.max(np.abs(rich_resid)))
    worst_poor = float(np.min(poor_slack))
    if not worst_rich <= tol:
        raise AssertionError(f"buyer Euler residual {worst_rich} exceeds {tol}")
    if not worst_poor >= -tol:
        raise AssertionError(f"seller slack {worst_poor} negative beyond {tol}")
    return {
        "max_rich_residual": worst_rich,
        "min_poor_slack": worst_poor,
        "periods": horizon,
    }
