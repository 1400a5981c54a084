"""Production OLG with capital: bubbles crowding investment out or in.

Young workers earn the wage w(K) = A(1-alpha)K^alpha, save a fraction beta
of it (log preferences), and split savings between capital and, possibly, an
intrinsically useless asset. The fundamental steady state solves
K = beta*w(K). A bubbly steady state requires the asset's return (1, it is
in fixed supply and constant price) to match capital's return
R(K) = A*alpha*K^(alpha-1) + 1 - delta, pinning K_b, with the bubble
absorbing the residual saving: P = beta*w(K_b) - K_b. That residual is
positive exactly when the fundamental rate R_f = R(K_f) falls short of 1,
i.e. beta*delta*(1-alpha)/alpha > 1. In the baseline, K_f > K_b always
(the bubble crowds capital out).

The variant gives only a fraction pi of the young access to the capital
technology; the rest can only store (at 1 - delta) or, if it exists, buy
the asset. Without the asset only the entrepreneurs' savings become
capital, so K_f = [beta*A*(1-alpha)*pi^alpha]^(1/(1-alpha)). With it, the
asset hands non-entrepreneurs a return of 1, entrepreneurs hold all the
capital, and R(K_b) = 1 pins the same K_b as before. For small pi the
bubble then raises capital: K_b > K_f (crowding in). The crossover pi is
found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class TiroleParams:
    beta: float
    alpha: float               # capital share
    delta: float               # depreciation
    tfp: float                 # A
    entrepreneur_prob: float = 1.0   # pi, fraction of young with projects

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0,1], got {self.delta}")
        if not (self.tfp > 0.0):
            raise ValueError("tfp must be positive")
        if not (0.0 < self.entrepreneur_prob <= 1.0):
            raise ValueError("entrepreneur_prob must lie in (0,1]")


class BubblySteady(NamedTuple):
    capital: float
    price: float
    rate: float = 1.0   # constant-price asset in fixed supply


class TiroleSteadyStates(NamedTuple):
    k_fundamental: float
    r_fundamental: float
    bubbly: BubblySteady | None
    crowding: str | None   # "out" | "in" | None when no bubbly steady state


def wage(p: TiroleParams, k: float) -> float:
    return p.tfp * (1.0 - p.alpha) * k**p.alpha


def capital_rate(p: TiroleParams, k: float) -> float:
    """Gross return on capital, A*alpha*K^(alpha-1) + 1 - delta."""
    return p.tfp * p.alpha * k ** (p.alpha - 1.0) + 1.0 - p.delta


def _bubbly_steady(p: TiroleParams) -> BubblySteady | None:
    # R(K_b) = 1 pins K_b; P > 0 iff beta*delta*(1-alpha)/alpha > 1
    margin = p.beta * p.delta * (1.0 - p.alpha) / p.alpha
    if margin <= 1.0:
        return None
    k_b = (p.tfp * p.alpha / p.delta) ** (1.0 / (1.0 - p.alpha))
    price = k_b * (margin - 1.0)
    return BubblySteady(capital=k_b, price=price)


def tirole_steady(p: TiroleParams) -> TiroleSteadyStates:
    """Steady states when every young agent can hold capital: the pi = 1
    case of tirole_crowdin_steady."""
    if p.entrepreneur_prob != 1.0:
        raise ValueError("tirole_steady requires entrepreneur_prob = 1")
    return tirole_crowdin_steady(p)


def _fundamental_capital(p: TiroleParams, pi: float) -> float:
    # only the entrepreneurs' savings become capital
    return (p.beta * p.tfp * (1.0 - p.alpha) * pi**p.alpha) ** (
        1.0 / (1.0 - p.alpha)
    )


def tirole_crowdin_steady(p: TiroleParams) -> TiroleSteadyStates:
    """Steady states with limited participation (pi <= 1). The fundamental
    rate reported is the marginal product of productive capital,
    alpha/(beta*pi*(1-alpha)) + 1 - delta."""
    pi = p.entrepreneur_prob
    k_f = _fundamental_capital(p, pi)
    r_f = p.alpha / (p.beta * pi * (1.0 - p.alpha)) + 1.0 - p.delta
    bub = _bubbly_steady(p)
    crowding = None
    if bub is not None:
        crowding = "in" if bub.capital > k_f else "out"
    return TiroleSteadyStates(
        k_fundamental=k_f, r_fundamental=r_f, bubbly=bub, crowding=crowding
    )


def crossover_pi(p: TiroleParams, tol: float = 1e-10) -> float:
    """Participation level at which crowding flips: the pi solving
    K_f(pi) = K_b, located by bisection on [1e-6, 1].

    Exists only when the bubbly steady state does (then K_f(1) > K_b and
    K_f(pi) -> 0 as pi -> 0). Raises otherwise.
    """
    bub = _bubbly_steady(p)
    if bub is None:
        raise ValueError("no bubbly steady state, so no crowding crossover")

    def gap(pi: float) -> float:
        return _fundamental_capital(p, pi) - bub.capital

    lo, hi = 1e-6, 1.0
    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise ValueError("crossover does not bracket inside [1e-6, 1]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def savings_identity_residual(p: TiroleParams) -> float:
    """K_b + P - beta*w(K_b) at the bubbly steady state (zero in theory).
    Requires pi = 1 so that all savings flow through the young's wage."""
    st = tirole_steady(p)
    if st.bubbly is None:
        raise ValueError("no bubbly steady state")
    k_b, price = st.bubbly.capital, st.bubbly.price
    return k_b + price - p.beta * wage(p, k_b)
