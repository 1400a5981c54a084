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

import numpy as np

from .paths import EquilibriumPath
from .recur import SeriesClass, yield_test
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
    return EquilibriumPath(price=price, dividend=p.dividend.values(horizon + 1))


def _identically_zero(seq: Sequence) -> bool:
    if isinstance(seq, ExplicitSeq):
        return all(v == 0.0 for v in seq.entries)
    return tail_asymptotics(seq) == (0.0, 0.0)


def wilson_bubble_test(p: WilsonParams, horizon: int = 10_000) -> SeriesClass:
    """Classify sum D_t / a_t with ``recur.yield_test``: Convergent means the
    price P_t = beta * a_t strictly exceeds the fundamental (a bubble),
    Divergent means the price is all fundamental.

    Two generator sequences give the exact tail of D_t / a_t and need no
    terms. With an explicit sequence the terms are the first ``horizon``
    ones, or as many as the explicit sequences have; fewer than
    ``recur.MIN_TERMS`` are Inconclusive.
    """
    seqs = (p.dividend, p.young_endow)
    lengths = [len(s.entries) for s in seqs if isinstance(s, ExplicitSeq)]
    tail = None
    if _identically_zero(p.dividend):
        tail = 0.0, 0.0   # a pure-bubble asset: the sum is trivially finite
    elif not lengths:
        (rd, kd), (ra, ka) = map(tail_asymptotics, seqs)
        tail = rd / ra, kd - ka
    n = 0 if tail is not None else min(horizon, *lengths)
    return yield_test(p.dividend.values(n) / p.young_endow.values(n), tail)
