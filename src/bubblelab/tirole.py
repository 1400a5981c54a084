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
capital, and R(K_b) = 1 pins the same K_b as before. K_f(pi) = K_b at
pi* = margin^(-1/alpha) in closed form, margin = beta*delta*(1-alpha)/alpha:
the bubble crowds capital in below pi* (K_b > K_f) and out above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


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


def _pow(x, y):
    """x ** y, elementwise through np.float_power when either is an array.

    Every base here is positive and finite. There np.float_power's float64
    loop calls the C library's pow, as Python's float ** does, so the grid
    matches the scalar functions bit for bit; np.power's vectorised
    (AVX-512) loops can round differently in the last bit."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.float_power(x, y)
    return x**y


def _bubble_margin(p: TiroleParams) -> float:
    # R(K_b) = 1 pins K_b; P > 0 iff beta*delta*(1-alpha)/alpha > 1
    return p.beta * p.delta * (1.0 - p.alpha) / p.alpha


def _bubbly_capital(p: TiroleParams) -> float:
    return _pow(p.tfp * p.alpha / p.delta, 1.0 / (1.0 - p.alpha))


def _bubble_price(p: TiroleParams, k_b: float) -> float:
    # the saving left over at K_b
    return k_b * (_bubble_margin(p) - 1.0)


def _bubbly_steady(p: TiroleParams) -> BubblySteady | None:
    if _bubble_margin(p) <= 1.0:
        return None
    k_b = _bubbly_capital(p)
    return BubblySteady(capital=k_b, price=_bubble_price(p, k_b))


def tirole_steady(p: TiroleParams) -> TiroleSteadyStates:
    """Steady states when every young agent can hold capital: the pi = 1
    case of tirole_crowdin_steady."""
    if p.entrepreneur_prob != 1.0:
        raise ValueError("tirole_steady requires entrepreneur_prob = 1")
    return tirole_crowdin_steady(p)


def _fundamental_capital(p: TiroleParams) -> float:
    # only the entrepreneurs' savings become capital
    return _pow(
        p.beta * p.tfp * (1.0 - p.alpha) * _pow(p.entrepreneur_prob, p.alpha),
        1.0 / (1.0 - p.alpha),
    )


def _fundamental_rate(p: TiroleParams) -> float:
    # marginal product of productive capital
    return p.alpha / (p.beta * p.entrepreneur_prob * (1.0 - p.alpha)) + 1.0 - p.delta


def tirole_crowdin_steady(p: TiroleParams) -> TiroleSteadyStates:
    """Steady states with limited participation (pi <= 1). The fundamental
    rate reported is the marginal product of productive capital,
    alpha/(beta*pi*(1-alpha)) + 1 - delta."""
    k_f = _fundamental_capital(p)
    r_f = _fundamental_rate(p)
    bub = _bubbly_steady(p)
    crowding = None
    if bub is not None:
        crowding = "in" if bub.capital > k_f else "out"
    return TiroleSteadyStates(
        k_fundamental=k_f, r_fundamental=r_f, bubbly=bub, crowding=crowding
    )


def crossover_pi(p: TiroleParams) -> float:
    """Participation level at which crowding flips: the pi solving
    K_f(pi) = K_b, which is margin^(-1/alpha).

    Exists only when the bubbly steady state does (margin > 1, so that
    K_f(1) > K_b and the crossover lies in (0, 1)). Raises otherwise, and
    when pi* underflows below the smallest normal double.
    """
    margin = _bubble_margin(p)
    if margin <= 1.0:
        raise ValueError("no bubbly steady state, so no crowding crossover")
    pi_star = margin ** (-1.0 / p.alpha)
    if pi_star < np.finfo(float).tiny:
        raise ValueError(f"pi* = {margin}^(-1/{p.alpha}) is below the normal doubles")
    return pi_star


def savings_identity_residual(p: TiroleParams) -> float:
    """K_b + P - beta*w(K_b) at the bubbly steady state (zero in theory).
    Requires pi = 1 so that all savings flow through the young's wage."""
    st = tirole_steady(p)
    if st.bubbly is None:
        raise ValueError("no bubbly steady state")
    k_b, price = st.bubbly.capital, st.bubbly.price
    return k_b + price - p.beta * wage(p, k_b)
