"""First-order affine recurrences and the yield-sum bubble criterion.

Every model in this package eventually reduces to iterating

    x_{t+1} = rho * x_t + c

in some transformed variable: inverse prices, wealth levels, price-rent
ratios. This module holds that recurrence once: ``affine_path`` is the one
kernel that steps it. ``AffineRecurrence`` and ``solve_affine``, its closed
form, are kept as the oracle the benchmark checks simulated prices against.

Beside them sits the one bubble criterion the models share: a price with
positive dividends carries a bubble iff the dividend yields sum,
sum D_t / P_t < infinity (Montrucchio, Economic Theory 2004).
``yield_test`` gives every such verdict: exactly (``classify_series_exact``)
when the yields' tail is known in closed form, otherwise from the terms
themselves (``classify_series``).

``NecessityTriple`` is the record of the Bubble Necessity Theorem's
ordering R < G_d < G (fundamental rate, dividend growth, economy growth)
that the land economy's ``classify_regime`` reports.

The series classifier is deliberately honest about what a finite sample can
show. A geometric tail ratio bounded away from one is decisive either way;
a ratio indistinguishable from one falls back to a linear-vs-sublinear tail
test (terms decaying no faster than C/t cannot sum), and anything finer than
that is reported Inconclusive rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Slopes within this distance of 1 are treated as exactly 1 (boundary
# economies produce rho = 1 only up to float rounding of the parameters).
UNIT_SLOPE_TOL = 1e-12

_RATIO_MARGIN = 1e-3     # geometric evidence must clear 1 by this much
_TAIL_SLACK = 1e-6       # slack when testing t*a_t for a non-decreasing tail


@dataclass(frozen=True)
class AffineRecurrence:
    """x_{t+1} = slope * x_t + drift, started at x_0 = initial."""

    slope: float
    drift: float
    initial: float

    def __post_init__(self):
        if not (self.slope >= 0.0):
            raise ValueError(f"slope must be nonnegative, got {self.slope}")
        for name in ("slope", "drift", "initial"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def unit_slope(self) -> bool:
        return abs(self.slope - 1.0) <= UNIT_SLOPE_TOL


def solve_affine(rec: AffineRecurrence, t: int) -> float:
    """Value of the recurrence after t steps, in closed form.

    Evaluated as x_t = slope^t * x_0 + drift * S_t with S_t the geometric
    sum, using expm1/log1p so that slopes near one do not cancel
    catastrophically.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return rec.initial
    if rec.unit_slope:
        return rec.initial + rec.drift * t
    d = rec.slope - 1.0
    log_slope = math.log1p(d)
    power = math.exp(t * log_slope)              # slope^t
    geom_sum = math.expm1(t * log_slope) / d     # (slope^t - 1)/(slope - 1)
    return power * rec.initial + rec.drift * geom_sum


def affine_path(slope, drift, initial: float, horizon: int) -> np.ndarray:
    """Trajectory x_0..x_horizon of x_0 = initial, x_t = slope_t x_{t-1} + drift_t.

    ``slope`` and ``drift`` are scalars (0-d arrays included) or arrays of
    length ``horizon`` (entry t-1 drives step t). A scalar, or an array
    whose entries all have the same bits, is stepped as one repeated Python
    float, never expanded to ``horizon`` entries. The steps
    run in Python floats, so an explosive path overflows to inf without a
    numpy warning.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    slopes, drifts = (_steps(v, horizon) for v in (slope, drift))
    x = float(initial)
    out = [x] + [x := a * x + c for a, c in zip(slopes, drifts)]
    return np.fromiter(out, float, len(out))


def _steps(v, horizon: int) -> Iterable[float]:
    """The ``horizon`` per-step values of a coefficient as Python floats."""
    v = np.asarray(v, dtype=float)
    bits = v.view(np.uint64)
    if v.size and (bits == bits.flat[0]).all():
        return repeat(float(v.flat[0]), horizon)
    return np.broadcast_to(v, (horizon,)).tolist()


MIN_TERMS = 100   # the fewest terms ``classify_series`` decides from


class SeriesKind(str, Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


class SeriesClass(NamedTuple):
    """Finite-horizon summability verdict; tail_ratio is the estimated
    geometric decay rate of the terms (mean of the last 10% of ratios)."""

    kind: SeriesKind
    tail_ratio: float


def classify_series(terms: Iterable[float], horizon: int = 10_000) -> SeriesClass:
    """Decide whether sum(a_t) converges from the first ``horizon`` terms.

    ``terms`` is any iterable of numbers; a 1-D numeric ndarray is read as
    ``terms[:horizon]`` in float64, without stepping through its elements.
    Terms must be nonnegative. Decision rule, on the last 10% of the sample:
    mean term ratio below 1 - 1e-3 is Convergent, above 1 + 1e-3 is
    Divergent; inside that band the series is Divergent if t*a_t is
    non-decreasing over the tail (decay no faster than C/t) and
    Inconclusive otherwise. An identically-zero tail sums trivially.
    """
    if horizon < MIN_TERMS:
        raise ValueError(f"horizon must be at least {MIN_TERMS}")
    if isinstance(terms, np.ndarray) and terms.ndim == 1 and terms.dtype.kind in "biuf":
        xs = terms[:horizon].astype(float, copy=False)
    else:
        xs = np.fromiter(islice(iter(terms), horizon), dtype=float)
    if xs.size < MIN_TERMS:
        raise ValueError(f"need at least {MIN_TERMS} terms, got {xs.size}")
    if np.any(xs < 0) or not np.all(np.isfinite(xs)):
        raise ValueError("terms must be finite and nonnegative")

    m = max(10, xs.size // 10)
    tail = xs[-m:]
    if np.all(tail == 0.0):
        return SeriesClass(SeriesKind.CONVERGENT, 0.0)

    prev, curr = tail[:-1], tail[1:]
    ok = prev > 0.0
    if np.count_nonzero(ok) < 5:
        return SeriesClass(SeriesKind.INCONCLUSIVE, math.nan)
    rhat = float(np.mean(curr[ok] / prev[ok]))

    if rhat < 1.0 - _RATIO_MARGIN:
        return SeriesClass(SeriesKind.CONVERGENT, rhat)
    if rhat > 1.0 + _RATIO_MARGIN:
        return SeriesClass(SeriesKind.DIVERGENT, rhat)
    # Geometric evidence is flat; compare against the harmonic envelope.
    t_idx = np.arange(xs.size - m + 1, xs.size + 1, dtype=float)  # 1-based
    scaled = t_idx * tail
    if np.min(scaled) > 0.0 and scaled[-1] >= scaled[0] * (1.0 - _TAIL_SLACK):
        return SeriesClass(SeriesKind.DIVERGENT, rhat)
    return SeriesClass(SeriesKind.INCONCLUSIVE, rhat)


def classify_series_exact(ratio: float, power: float = 0.0) -> SeriesClass:
    """Summability of terms with known asymptotics a_t ~ C * ratio^t * t^power.

    Used when generators expose their exact tail behaviour, so boundary
    cases (ratio exactly 1) resolve by the power: sum t^power converges
    iff power < -1.
    """
    if not (ratio >= 0.0) or not math.isfinite(ratio):
        raise ValueError("ratio must be finite and nonnegative")
    if ratio < 1.0:
        return SeriesClass(SeriesKind.CONVERGENT, ratio)
    if ratio > 1.0:
        return SeriesClass(SeriesKind.DIVERGENT, ratio)
    if power < -1.0:
        return SeriesClass(SeriesKind.CONVERGENT, 1.0)
    return SeriesClass(SeriesKind.DIVERGENT, 1.0)


def yield_test(
    terms: np.ndarray | Sequence[float], tail: tuple[float, float] | None = None
) -> SeriesClass:
    """Whether the dividend yields D_t / P_t sum: Convergent means the price
    carries a bubble, Divergent that it is all fundamental.

    A known tail ``(ratio, power)``, yields ~ C * ratio^t * t^power, gives
    the exact verdict and ``terms`` are not read. Otherwise the verdict is
    ``classify_series`` on all the ``terms`` given, and fewer than
    MIN_TERMS of them are Inconclusive.
    """
    if tail is not None:
        return classify_series_exact(*tail)
    if len(terms) < MIN_TERMS:
        return SeriesClass(SeriesKind.INCONCLUSIVE, math.nan)
    return classify_series(terms, horizon=len(terms))


class NecessityTriple(NamedTuple):
    """Bubble Necessity Theorem (Hirano and Toda, JPE 2025): if the
    bubbleless fundamental rate R, dividend growth G_d and the economy's
    growth G satisfy R < G_d < G, every equilibrium is bubbly (``holds``)."""

    fundamental_rate: float
    dividend_growth: float
    economy_growth: float

    @property
    def holds(self) -> bool:
        return self.fundamental_rate < self.dividend_growth < self.economy_growth
