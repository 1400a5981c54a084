"""Overlapping generations with a dividend-paying asset.

Young agents hold endowment a_t (a deterministic sequence), the old hold
nothing, and the single asset pays dividend D_t. With Cobb-Douglas weights
(1-beta, beta) the young spend the fixed share beta of their endowment on
the asset, so market clearing in unit supply gives P_t = beta * a_t no
matter what the dividends are. Whether that price contains a bubble is a
question about the dividend-to-endowment tail: the fundamental exhausts the
price exactly when sum D_t / P_t diverges, i.e. when sum D_t / a_t does.

Growing economies can therefore sustain a bubble on an asset whose
dividends grow too, as long as they grow strictly slower than endowments.
For generator-form sequences the test is exact (geometric ratios and
polynomial powers resolve boundary cases); explicit sequences fall back to
the finite-sample series classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath
from .recur import SeriesClass, SeriesKind, classify_series, classify_series_exact
from .sequences import ExplicitSeq, Sequence, always_positive, tail_asymptotics


@dataclass(frozen=True)
class WilsonParams:
    beta: float
    young_endow: Sequence    # a_t > 0
    dividend: Sequence       # D_t >= 0 (zeros allowed)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if not always_positive(self.young_endow):
            raise ValueError("young_endow must be strictly positive")
        if isinstance(self.dividend, ExplicitSeq):
            if any(v < 0.0 for v in self.dividend.entries):
                raise ValueError("dividend entries must be nonnegative")


def wilson_path(p: WilsonParams, horizon: int) -> EquilibriumPath:
    """Equilibrium path P_t = beta * a_t with realized returns
    (P_{t+1} + D_{t+1}) / P_t."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    endow = p.young_endow.values(horizon + 1)
    price = p.beta * endow
    dividend = p.dividend.values(horizon + 1)
    return EquilibriumPath(
        price=price,
        dividend=dividend,
        meta={"model": "wilson"},
    )


def _identically_zero(seq: Sequence) -> bool:
    if isinstance(seq, ExplicitSeq):
        return all(v == 0.0 for v in seq.entries)
    # generator forms vanish everywhere iff the scale does
    return seq.values(1)[0] == 0.0


def wilson_bubble_test(p: WilsonParams, horizon: int = 10_000) -> SeriesClass:
    """Classify sum D_t / a_t: Convergent means the price P_t = beta * a_t
    strictly exceeds the fundamental (a bubble), Divergent means the price
    is all fundamental.

    When both sequences expose exact tail asymptotics the verdict is exact;
    otherwise it is the finite-sample classifier on the first ``horizon``
    terms (explicit sequences are classified over the terms they have).
    """
    if _identically_zero(p.dividend):
        # pure-bubble asset: the fundamental is zero, the sum trivially finite
        return SeriesClass(kind=SeriesKind.CONVERGENT, tail_ratio=0.0)
    asym_d = tail_asymptotics(p.dividend)
    asym_a = tail_asymptotics(p.young_endow)
    if asym_d is not None and asym_a is not None:
        (rd, kd), (ra, ka) = asym_d, asym_a
        return classify_series_exact(ratio=rd / ra, power=kd - ka)
    n = horizon
    for seq in (p.dividend, p.young_endow):
        if isinstance(seq, ExplicitSeq):
            n = min(n, len(seq.entries))
    terms = p.dividend.values(n) / p.young_endow.values(n)
    return classify_series(terms, horizon=max(n, 100))


class NecessityReport(NamedTuple):
    """The three-rate comparison behind bubble existence with positive
    old-age endowments: autarky rate R = (1-beta)*b/(beta*a) against
    dividend growth and endowment growth. A bubble on a dividend-paying
    asset needs R < dividend_growth < endow_growth."""

    autarky_rate: float
    dividend_growth: float
    endow_growth: float

    @property
    def holds(self) -> bool:
        return self.autarky_rate < self.dividend_growth < self.endow_growth


def necessity_report(
    beta: float,
    young_endow: float,
    old_endow: float,
    endow_growth: float,
    dividend_growth: float,
) -> NecessityReport:
    """Necessity check for user-supplied endowment pairs; old_endow must be
    positive (the autarky marginal rate degenerates at b = 0)."""
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0,1)")
    if not (young_endow > 0.0 and old_endow > 0.0):
        raise ValueError("endowments must be positive (old_endow > 0 required)")
    if not (endow_growth > 0.0 and dividend_growth > 0.0):
        raise ValueError("growth rates must be positive")
    rate = (1.0 - beta) * old_endow / (beta * young_endow)
    return NecessityReport(
        autarky_rate=rate,
        dividend_growth=dividend_growth,
        endow_growth=endow_growth,
    )
