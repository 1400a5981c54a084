"""First-order affine recurrences and convergence classification.

Every model in this package eventually reduces to iterating

    x_{t+1} = rho * x_t + c

in some transformed variable: inverse prices, wealth levels, price-rent
ratios. This module holds that recurrence once: ``affine_path`` is the one
kernel that steps it, and ``solve_affine`` its closed form. Beside them sit
the two classifiers the models share:

* ``classify_limit`` -- the long-run behaviour of the recurrence itself
  (converges, drifts linearly, or explodes geometrically), and
* ``classify_series`` -- a finite-horizon verdict on whether a nonnegative
  series sums, used by the bubble detectors on dividend-yield terms.

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
from itertools import islice
from typing import Iterable, NamedTuple

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

    @property
    def fixed_point(self) -> float | None:
        """drift / (1 - slope), or None on the unit-slope boundary."""
        if self.unit_slope:
            return None
        return self.drift / (1.0 - self.slope)


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

    ``slope`` and ``drift`` are scalars or arrays of length ``horizon``
    (entry t-1 drives step t). The steps run in Python floats, so an
    explosive path overflows to inf without a numpy warning.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    slopes = np.broadcast_to(np.asarray(slope, dtype=float), (horizon,)).tolist()
    drifts = np.broadcast_to(np.asarray(drift, dtype=float), (horizon,)).tolist()
    x = float(initial)
    out = [x]
    for a, c in zip(slopes, drifts):
        x = a * x + c
        out.append(x)
    return np.array(out)


def iterate_affine(rec: AffineRecurrence, horizon: int) -> np.ndarray:
    """Step-by-step trajectory x_0..x_horizon (the oracle for solve_affine)."""
    slope = 1.0 if rec.unit_slope else rec.slope
    return affine_path(slope, rec.drift, rec.initial, horizon)


class LimitKind(str, Enum):
    CONVERGES_TO = "converges_to"
    CONVERGES_TO_ZERO = "converges_to_zero"
    LINEAR_DIVERGENCE = "linear_divergence"
    EXPONENTIAL_DIVERGENCE = "exponential_divergence"


class LimitClass(NamedTuple):
    """Long-run tag plus its datum: the limit for the convergent kinds, the
    per-period increment for linear divergence, the slope for exponential."""

    kind: LimitKind
    value: float

    @property
    def convergent(self) -> bool:
        return self.kind in (LimitKind.CONVERGES_TO, LimitKind.CONVERGES_TO_ZERO)


def _converges(value: float) -> LimitClass:
    if value == 0.0:
        return LimitClass(LimitKind.CONVERGES_TO_ZERO, 0.0)
    return LimitClass(LimitKind.CONVERGES_TO, value)


def classify_limit(rec: AffineRecurrence) -> LimitClass:
    """Classify lim x_t. Total over slope >= 0; boundary slope 1 included."""
    if rec.unit_slope:
        if rec.drift == 0.0:
            return _converges(rec.initial)
        return LimitClass(LimitKind.LINEAR_DIVERGENCE, rec.drift)
    fp = rec.drift / (1.0 - rec.slope)
    if rec.slope < 1.0:
        return _converges(fp)
    # slope > 1: exactly at the fixed point the path is constant
    if rec.initial == fp:
        return _converges(fp)
    return LimitClass(LimitKind.EXPONENTIAL_DIVERGENCE, rec.slope)


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

    Terms must be nonnegative. Decision rule, on the last 10% of the sample:
    mean term ratio below 1 - 1e-3 is Convergent, above 1 + 1e-3 is
    Divergent; inside that band the series is Divergent if t*a_t is
    non-decreasing over the tail (decay no faster than C/t) and
    Inconclusive otherwise. An identically-zero tail sums trivially.
    """
    if horizon < 100:
        raise ValueError("horizon must be at least 100")
    xs = np.fromiter(islice(iter(terms), horizon), dtype=float)
    if xs.size < 100:
        raise ValueError(f"need at least 100 terms, got {xs.size}")
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
