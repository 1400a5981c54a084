"""Discounting, fundamental values, and bubble verdicts on realized paths.

Discount factors compound realized returns: q_0 = 1, q_{t+1} = q_t / R_t,
which makes q_t P_t = q_{t+1} (P_{t+1} + D_{t+1}) an identity on any path
whose rates were computed from its own prices. Iterating it,

    P_t = sum_{s=1}^{T} (q_{t+s}/q_t) D_{t+s}  +  (q_{t+T}/q_t) P_{t+T}

for every truncation T: price = discounted dividends + discounted resale.
The fundamental value is the T -> infinity limit of the first term; the
bubble is whatever survives in the second.

On a finite sample the infinite sum is estimated by a truncated sum plus a
geometric continuation D_{t+T} * (q_{t+T}/q_t) * R/(R-1), where R is the
terminal rate estimated from the final tenth of the path (trusted only if
that tail is flat to 1e-6). The same quantity serves as the truncation
error scale ("tail bound"): a bubble is only called when the bubble
component clears three times the bound, and its absence is only called when
on top of that the bound is negligible against the price itself. Everything
else is reported Inconclusive; desk-scale horizons cannot decide boundary
cases and this module does not pretend otherwise.

If the terminal rate is at or below 1 while dividends stay bounded away
from zero, the dividend sum diverges: no finite price could ever equal it,
and the path is flagged ``infinite_pv`` instead of valued.

``detect_bubble`` is the complementary series test: on a positive-price
path, sum D_t / P_t diverges exactly when the price is all fundamental, so
the series classifier's verdict maps directly to bubble / no bubble.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .paths import EquilibriumPath
from .recur import SeriesClass, SeriesKind, yield_test

BUBBLY = "bubbly"
FUNDAMENTAL = "fundamental"
INCONCLUSIVE = "inconclusive"
_VERDICTS = {SeriesKind.CONVERGENT: BUBBLY, SeriesKind.DIVERGENT: FUNDAMENTAL}

_RATE_SPREAD_TOL = 1e-6    # tail rates must be this flat to extrapolate
_BOUND_MULTIPLE = 3.0      # bubble must clear this many tail bounds
_NEGLIGIBLE_TAIL = 1e-3    # tail bound vs price for a Fundamental verdict
_BLOCK_SPAN = 200.0        # nats of -log q one block of window terms may span


def _require_finite(name: str, values: np.ndarray) -> None:
    """Raise at the first non-finite entry, naming its value and t: a path
    that overflowed the doubles has no valuation, and its D/inf = 0 yields
    would pass for a converging series."""
    bad = ~np.isfinite(values)
    if bad.any():
        t = int(bad.argmax())
        raise ValueError(
            f"{name} is {values[t]} at t = {t}; valuation needs finite values"
        )


def _usable_rates(path: EquilibriumPath) -> np.ndarray:
    _require_finite("price", path.price)
    rates = path.rate[:-1]   # the final entry is NaN by construction
    if rates.size == 0:
        raise ValueError("path too short to discount")
    if not np.all(np.isfinite(rates)) or np.any(rates <= 0.0):
        raise ValueError("discounting requires positive finite rates")
    return rates


def _log_discount(rates: np.ndarray) -> np.ndarray:
    """-log q_t for t = 0..n-1: zero, then the compounded log returns."""
    return np.concatenate(([0.0], np.cumsum(np.log(rates))))


def discount_factors(path: EquilibriumPath) -> np.ndarray:
    """The compounded discount factors q_t, as a float64 array."""
    return np.exp(-_log_discount(_usable_rates(path)))


def no_arbitrage_residuals(path: EquilibriumPath) -> np.ndarray:
    """Relative residuals of q_t P_t = q_{t+1} (P_{t+1} + D_{t+1}), checked
    through the one-period ratios q_{t+1}/q_t, so a path whose q_t underflows
    checks too."""
    logq = _log_discount(_usable_rates(path))
    lhs = path.price[:-1]
    rhs = np.exp(logq[:-1] - logq[1:]) * (path.price[1:] + path.dividend[1:])
    return np.abs(rhs - lhs) / np.abs(lhs)


def _block_length(logq: np.ndarray, T: int) -> int:
    """T, halved until no block of that many periods spans more than
    _BLOCK_SPAN nats of -log q, counting the period before its first term."""
    B = T
    while B > 1:
        nb = -(-(logq.size - 1) // B)
        ext = np.concatenate((logq, np.full(nb * B + 1 - logq.size, logq[-1])))
        body = ext[:-1].reshape(nb, B)
        ends = ext[B::B]
        span = np.maximum(body.max(axis=1), ends) - np.minimum(body.min(axis=1), ends)
        if span.max() <= _BLOCK_SPAN:
            break
        B = (B + 1) // 2
    return B


def _window_sums(
    logq: np.ndarray, dividend: np.ndarray, T: int
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted dividends over each window of T periods and the window's
    end discount: sum_{s<=T} (q_{t+s}/q_t) D_{t+s} and q_{t+T}/q_t for
    t = 0..n-1-T, from logq = -log q. Sliding sums without subtraction
    (van Herk/Gil-Werman): the terms are cut into blocks of B <= T, each
    summed relative to its block's start, and a window is the suffix of its
    first block, the whole blocks after it and the prefix of its last one,
    each rescaled to t. Every rescale factor is a ratio q_u/q_t with
    t < u <= t+T, which the direct sum forms too, or, for the suffix, lies
    within one block and so within e^(+-_BLOCK_SPAN)."""
    n = logq.size
    m = n - T
    B = _block_length(logq, T)
    nb = -(-n // B)
    anchor = logq[: nb * B : B]        # -log q at each block's start
    k = np.arange(n) // B              # block of term t+1 and of window t
    terms = np.zeros(nb * B)
    terms[: n - 1] = np.exp(anchor[k[: n - 1]] - logq[1:]) * dividend[1:]
    blocks = terms.reshape(nb, B)
    suffix = np.cumsum(blocks[:, ::-1], axis=1)[:, ::-1]
    total = suffix[:, 0]
    suffix = suffix.ravel()
    prefix = np.zeros((nb, B))         # sums of a block's terms before each slot
    np.cumsum(blocks[:, :-1], axis=1, out=prefix[:, 1:])
    prefix = prefix.ravel()
    head = logq[:m]
    first, last = k[:m], k[T:n]        # blocks of terms t+1 and t+T+1
    sums = (
        np.exp(head - anchor[first]) * suffix[:m]
        + np.exp(head - anchor[last]) * prefix[T:n]
    )
    for i in range(1, (T - 1) // B + 1):   # whole blocks, only when B < T
        whole = first + i < last
        j = first[whole] + i
        sums[whole] += np.exp(head[whole] - anchor[j]) * total[j]
    return sums, np.exp(head - logq[T:])


def truncation_identity_residuals(
    path: EquilibriumPath, truncation: int
) -> np.ndarray:
    """Residuals of the exact decomposition
    P_t = sum_{s<=T} (q_{t+s}/q_t) D_{t+s} + (q_{t+T}/q_t) P_{t+T},
    relative to P_t, for t = 0..n-1-T."""
    rates = _usable_rates(path)
    n = path.price.size
    T = truncation
    if not (1 <= T <= n - 1):
        raise ValueError("truncation must lie in [1, n-1]")
    pv, qr_end = _window_sums(_log_discount(rates), path.dividend, T)
    m = n - T
    return np.abs(pv + qr_end * path.price[T:] - path.price[:m]) / path.price[:m]


class BubbleReport(NamedTuple):
    fundamental: np.ndarray       # V_t, defined for t = 0..n-1-truncation
    bubble_component: np.ndarray  # P_t - V_t on the same range
    tail_bound: np.ndarray        # truncation error scale, same range
    limit_rate: float             # terminal rate estimate
    rate_spread: float            # max - min over the rate tail
    verdict: str                  # bubbly | fundamental | inconclusive
    infinite_pv: bool             # dividend PV diverges; no valuation possible
    tvc_estimate: float           # q_{n-1} P_{n-1}
    truncation: int


def fundamental_value(path: EquilibriumPath, truncation: int) -> BubbleReport:
    """Estimate V_t and the bubble component P_t - V_t along the path.

    ``truncation`` is the window length T of explicitly discounted
    dividends; V is reported for t = 0..n-1-T. See the module docstring for
    the verdict rules.
    """
    n = path.price.size
    T = truncation
    if not (10 <= T <= n - 1):
        raise ValueError("truncation must lie in [10, n-1]")
    if np.any(path.price <= 0.0):
        raise ValueError("valuation requires strictly positive prices")
    if np.any(path.dividend < 0.0):
        raise ValueError("dividends must be nonnegative")

    rates = _usable_rates(path)
    logq = _log_discount(rates)
    tvc = float(np.exp(-logq[-1]) * path.price[-1])
    m = n - T

    tail_m = max(10, rates.size // 10)
    rate_tail = rates[-tail_m:]
    limit_rate = float(np.mean(rate_tail))
    rate_spread = float(np.max(rate_tail) - np.min(rate_tail))

    price = path.price[:m]
    infinite_pv = False
    if not np.any(path.dividend > 0.0):
        # pure bubble: the fundamental is exactly zero, and so is its bound
        fundamental = tail_bound = np.zeros(m)
    else:
        div_m = max(10, n // 10)
        div_tail_min = float(np.min(path.dividend[-div_m:]))
        fundamental, qr_end = _window_sums(logq, path.dividend, T)
        if limit_rate <= 1.0 and div_tail_min > 0.0:
            # geometric continuation diverges: the path cannot be valued
            tail_bound = np.full(m, math.inf)
            infinite_pv = True
        elif rate_spread >= _RATE_SPREAD_TOL or limit_rate <= 1.0:
            # terminal rate not trustworthy; no continuation can be attached
            tail_bound = np.full(m, math.inf)
        else:
            continuation = limit_rate / (limit_rate - 1.0)
            tail_bound = qr_end * path.dividend[T:] * continuation
            fundamental = fundamental + tail_bound
    bubble = price - fundamental

    # With an infinite bound no verdict is decisive, so it stays
    # inconclusive; a pure bubble's zero bound makes it bubbly.
    slack = _BOUND_MULTIPLE * tail_bound + 1e-12 * price
    if np.any(bubble < -slack):
        raise ValueError(
            "negative bubble component beyond the truncation error; "
            "the input is not a no-arbitrage equilibrium path"
        )
    last = m - 1
    if bubble[last] > slack[last]:
        verdict = BUBBLY
    elif (
        np.all(bubble <= slack)
        and tail_bound[last] <= _NEGLIGIBLE_TAIL * price[last]
    ):
        verdict = FUNDAMENTAL
    else:
        verdict = INCONCLUSIVE
    return BubbleReport(
        fundamental=fundamental,
        bubble_component=bubble,
        tail_bound=tail_bound,
        limit_rate=limit_rate,
        rate_spread=rate_spread,
        verdict=verdict,
        infinite_pv=infinite_pv,
        tvc_estimate=tvc,
        truncation=T,
    )


class YieldDetection(NamedTuple):
    series: SeriesClass
    verdict: str


def detect_bubble(path: EquilibriumPath) -> YieldDetection:
    """Bubble test via the dividend-yield series: sum_{t>=1} D_t / P_t
    converges iff the price carries a bubble (``recur.yield_test`` on the
    path's yields; fewer than ``recur.MIN_TERMS`` are inconclusive)."""
    if np.any(path.price <= 0.0):
        raise ValueError("the yield test requires strictly positive prices")
    _require_finite("price", path.price)
    series = yield_test(path.dividend[1:] / path.price[1:])
    return YieldDetection(series, _VERDICTS.get(series.kind, INCONCLUSIVE))
