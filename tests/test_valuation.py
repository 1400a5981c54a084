"""Discounting, the price = dividends + resale decomposition, fundamental
values, and the dividend-yield bubble test, exercised on model paths and on
hand-built synthetic ones."""

import numpy as np
import pytest

from bubblelab import (
    BareBonesParams,
    BewleyParams,
    EquilibriumPath,
    SamuelsonParams,
    SeriesKind,
    WeilParams,
    bewley_path,
    construct_equilibrium,
    detect_bubble,
    discount_factors,
    fundamental_value,
    gross_rates,
    no_arbitrage_residuals,
    samuelson_price_path,
    simulate_forward,
    simulate_from_price,
    steady_path,
    thresholds,
    truncation_identity_residuals,
)
from bubblelab.valuation import _log_discount, _window_sums
from tests.test_barebones import RHO_HIGH, SS_RATE, cp

SAM = SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)


def test_discount_factors_compound_rates():
    path = steady_path(cp(0.4), horizon=100)
    q = discount_factors(path).q
    assert q[0] == 1.0
    expected = SS_RATE ** (-np.arange(101, dtype=float))
    assert np.allclose(q, expected, rtol=1e-10)
    # q_{t+1} R_t = q_t on a path with varying rates too
    moving = simulate_from_price(cp(0.4), p0=5.0, horizon=200)
    q = discount_factors(moving).q
    assert np.allclose(q[1:] * moving.rate[:-1], q[:-1], rtol=1e-12)


def test_discounting_rejects_collapsed_paths():
    from bubblelab import weil_sample_path

    p = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=0.8)
    path = weil_sample_path(p, seed=1, horizon=200)
    assert path.meta["collapse_time"] is not None  # 0.8^200 is negligible
    with pytest.raises(ValueError):
        discount_factors(path)
    with pytest.raises(ValueError):
        detect_bubble(path)


def test_no_arbitrage_residuals_on_model_paths():
    paths = [
        samuelson_price_path(SAM, p0=0.5, horizon=200),
        simulate_from_price(cp(0.4), p0=5.0, horizon=300),
        simulate_forward(cp(0.7), w0=30.0, horizon=300),
        steady_path(cp(0.4), horizon=50),
    ]
    for path in paths:
        assert np.max(no_arbitrage_residuals(path)) <= 1e-10


def test_truncation_identity():
    path = simulate_from_price(cp(0.4), p0=5.0, horizon=300)
    res = truncation_identity_residuals(path, truncation=50)
    assert res.size == 251
    assert np.max(res) <= 1e-10
    # the identity holds for any window length
    assert np.max(truncation_identity_residuals(path, truncation=1)) <= 1e-10
    with pytest.raises(ValueError):
        truncation_identity_residuals(path, truncation=0)
    with pytest.raises(ValueError):
        truncation_identity_residuals(path, truncation=301)


def test_balanced_path_is_all_fundamental():
    path = simulate_from_price(cp(0.4), p0=5.0, horizon=1200)
    rep = fundamental_value(path, truncation=400)
    assert rep.verdict == "fundamental"
    assert not rep.infinite_pv
    assert rep.limit_rate == pytest.approx(SS_RATE, abs=1e-9)
    assert rep.rate_spread < 1e-6
    # price equals fundamental up to the truncation error everywhere
    m = rep.fundamental.size
    assert m == 801
    slack = 3.0 * rep.tail_bound + 1e-10 * path.price[:m]
    assert np.all(np.abs(rep.bubble_component) <= slack)
    # the transversality term dies on a fundamental path
    assert rep.tvc_estimate < 1e-8
    # decomposition is internally consistent
    assert np.allclose(
        rep.fundamental + rep.bubble_component, path.price[:m], rtol=1e-14
    )


def test_unbalanced_path_carries_a_bubble():
    path = simulate_forward(cp(0.7), w0=30.0, horizon=1200)
    rep = fundamental_value(path, truncation=400)
    assert rep.verdict == "bubbly"
    assert not rep.infinite_pv
    assert rep.limit_rate == pytest.approx(RHO_HIGH, abs=1e-9)
    # the fundamental converges to D / (R - 1) = 1450/89
    v_limit = 1450.0 / 89.0
    assert abs(rep.fundamental[-1] - v_limit) <= max(rep.tail_bound[-1], 1e-8)
    # by t = 200 the bubble owns essentially the whole price
    share = rep.bubble_component[200] / path.price[200]
    assert share > 0.99
    # the discounted price does not vanish: transversality fails
    assert rep.tvc_estimate > 1e-3
    m = rep.fundamental.size
    assert np.allclose(
        rep.fundamental + rep.bubble_component, path.price[:m], rtol=1e-14
    )


def test_pure_bubble_paths_short_circuit():
    # no dividends anywhere: the fundamental is identically zero
    sam = samuelson_price_path(SAM, p0=1.0, horizon=60)
    rep = fundamental_value(sam, truncation=30)
    assert rep.verdict == "bubbly"
    assert np.all(rep.fundamental == 0.0)
    assert np.all(rep.bubble_component == sam.price[:31])
    assert np.all(rep.tail_bound == 0.0)
    assert rep.tvc_estimate == pytest.approx(1.0, rel=1e-12)

    bew = bewley_path(
        BewleyParams(beta=0.9, gamma=1.0, growth=1.0, rich_endow=2.0,
                     poor_endow=1.0),
        horizon=60,
    )
    rep = fundamental_value(bew, truncation=30)
    assert rep.verdict == "bubbly"
    assert np.all(rep.fundamental == 0.0)


def falling_rate_path():
    # price decays while dividends stay at 1: every rate sits below one
    t = np.arange(400, dtype=float)
    price = 1e6 * 0.99 ** t
    dividend = np.ones(400)
    return EquilibriumPath(
        price=price, dividend=dividend, rate=gross_rates(price, dividend)
    )


def test_divergent_dividend_sum_is_flagged():
    # the terminal rate sits below one and no finite present value exists
    path = falling_rate_path()
    rep = fundamental_value(path, truncation=50)
    assert rep.infinite_pv
    assert rep.verdict == "inconclusive"
    assert np.all(np.isinf(rep.tail_bound))
    assert rep.limit_rate < 1.0
    assert np.all(np.isfinite(rep.fundamental))  # truncated sum is reported


def test_moving_tail_rates_yield_inconclusive():
    # a short window leaves the rates still drifting in the tail, so no
    # geometric continuation is attached
    path = simulate_from_price(cp(0.4), p0=5.0, horizon=60)
    rep = fundamental_value(path, truncation=50)
    assert rep.rate_spread >= 1e-6
    assert rep.verdict == "inconclusive"
    assert not rep.infinite_pv
    assert np.all(np.isinf(rep.tail_bound))


def test_negative_bubble_rejected():
    # rates inconsistent with the price-dividend pair: discounting at 1.05
    # values the dividends at 20, above the constant price of 10
    n = 200
    price = np.full(n, 10.0)
    dividend = np.ones(n)
    rate = np.full(n, 1.05)
    rate[-1] = np.nan
    path = EquilibriumPath(price=price, dividend=dividend, rate=rate)
    with pytest.raises(ValueError, match="negative bubble"):
        fundamental_value(path, truncation=50)


def test_fundamental_value_validation():
    path = simulate_from_price(cp(0.4), p0=5.0, horizon=100)
    with pytest.raises(ValueError):
        fundamental_value(path, truncation=9)
    with pytest.raises(ValueError):
        fundamental_value(path, truncation=101)
    bad_div = EquilibriumPath(
        price=np.full(60, 10.0),
        dividend=np.full(60, -1.0),
        rate=np.full(60, 1.0),
    )
    with pytest.raises(ValueError):
        fundamental_value(bad_div, truncation=20)


def test_yield_detection_routes():
    fund = simulate_from_price(cp(0.4), p0=5.0, horizon=2000)
    det = detect_bubble(fund)
    assert det.verdict == "fundamental"
    assert det.series.kind is SeriesKind.DIVERGENT

    bub = simulate_forward(cp(0.7), w0=30.0, horizon=2000)
    det = detect_bubble(bub)
    assert det.verdict == "bubbly"
    assert det.series.kind is SeriesKind.CONVERGENT

    # linear price growth at the cutoff: yields decay like 1/t, divergent
    edge = simulate_forward(cp(thresholds(cp(0.4)).high), w0=20.0, horizon=2000)
    assert detect_bubble(edge).verdict == "fundamental"

    # pure bubble: the zero yield series converges trivially
    sam = samuelson_price_path(SAM, p0=0.5, horizon=300)
    assert detect_bubble(sam).verdict == "bubbly"


def test_detectors_agree_with_regime_classifier():
    from bubblelab import classify_regime

    for a in (0.4, 0.7):
        p = cp(a)
        path = (
            simulate_forward(p, w0=30.0, horizon=1200)
            if a == 0.7
            else simulate_from_price(p, p0=5.0, horizon=1200)
        )
        has_bubble = classify_regime(p).has_bubble
        det = detect_bubble(path).verdict
        rep = fundamental_value(path, truncation=400).verdict
        expected = "bubbly" if has_bubble else "fundamental"
        assert det == expected
        assert rep == expected


# --- the window-sum kernel against its oracles ------------------------------


def reference_window_sums(logq, dividend, T):
    """The O(n T) loop the sliding kernel replaced: one slice per window."""
    m = logq.size - T
    sums = np.empty(m)
    q_end_ratio = np.empty(m)
    for t in range(m):
        ratios = np.exp(logq[t] - logq[t + 1 : t + T + 1])
        sums[t] = float(ratios @ dividend[t + 1 : t + T + 1])
        q_end_ratio[t] = ratios[-1]
    return sums, q_end_ratio


def random_logq(trend, n, rng):
    """-log q along n periods of noisy log returns: falling (R < 1), flat,
    rising (R > 1), mixed (booms and busts of about 20 periods), steeply
    rising or falling (one block of T periods spans hundreds of nats), or a
    cliff (one period returns e^300)."""
    if trend == "mixed":
        drift = 0.05 * np.sign(np.sin(np.arange(n - 1) / 7.0))
    elif trend == "cliff":
        drift = np.where(np.arange(n - 1) == n // 2, 300.0, 0.0)
    else:
        drift = {
            "falling": -0.03,
            "flat": 0.0,
            "rising": 0.03,
            "steep_rising": 3.0,
            "steep_falling": -1.5,
        }[trend]
    steps = drift + rng.normal(0.0, 0.05, n - 1)
    return np.concatenate(([0.0], np.cumsum(steps)))


@pytest.mark.parametrize(
    "trend, n",
    [(trend, n) for trend in ("falling", "flat", "rising", "mixed") for n in (2, 97, 256)]
    + [("steep_rising", 601), ("steep_falling", 256), ("cliff", 256)],
)
def test_window_sums_match_loop(trend, n):
    rng = np.random.default_rng([n, 0])
    logq = random_logq(trend, n, rng)
    if trend == "steep_rising":
        assert np.exp(-logq[-1]) == 0.0  # q_t itself is not a double
    dividend = rng.uniform(0.0, 2.0, n)
    windows = {1, 2, 3, 10, 64, n // 3, n // 2, n - 2, n - 1} & set(range(1, n))
    for T in sorted(windows):
        sums, q_end = _window_sums(logq, dividend, T)
        ref_sums, ref_q_end = reference_window_sums(logq, dividend, T)
        assert np.array_equal(q_end, ref_q_end)
        assert np.max(np.abs(sums - ref_sums) / ref_sums) <= 1e-13, T


@pytest.mark.filterwarnings("error")
def test_valuation_of_a_land_only_path_with_rate_two():
    # R = 2: a block of T = 1500 periods spans 1040 nats of -log q, more
    # than a double's exponent range; the windows still value exactly
    land_only = BareBonesParams(
        pi=0.1, beta=0.5, delta=0.08, productivity=0.0, rent=1.0
    )
    path = steady_path(land_only, horizon=3000)
    assert np.all(path.rate[:-1] == 2.0)
    T = 1500
    rep = fundamental_value(path, truncation=T)
    assert rep.verdict == "fundamental"
    logq = _log_discount(path.rate[:-1])
    sums, _ = _window_sums(logq, path.dividend, T)
    # -log q is a running sum of log 2, so its differences carry its rounding
    assert np.allclose(sums, 1.0 - 2.0 ** (-T), rtol=1e-12, atol=0.0)
    ref_sums, _ = reference_window_sums(logq, path.dividend, T)
    assert np.max(np.abs(sums - ref_sums) / ref_sums) <= 1e-13
    assert np.max(truncation_identity_residuals(path, T)) <= 1e-12


def test_valuation_where_discount_factors_underflow():
    # -log q passes 745 near t = 33 000: q_t underflows to zero, yet every
    # window spans only T periods and values exactly
    path = steady_path(cp(0.4), horizon=40_000)
    assert discount_factors(path).q[-1] == 0.0
    assert np.max(no_arbitrage_residuals(path)) <= 1e-10
    T = 1000
    rep = fundamental_value(path, truncation=T)
    assert rep.verdict == "fundamental"
    assert rep.tvc_estimate == 0.0
    sums, _ = _window_sums(_log_discount(path.rate[:-1]), path.dividend, T)
    closed = (1.0 - SS_RATE ** (-T)) / (SS_RATE - 1.0)  # sum_{s<=T} R^-s
    assert np.allclose(sums, closed, rtol=1e-12, atol=0.0)
    assert np.max(truncation_identity_residuals(path, T)) <= 1e-10


def mp_window_sums(logq, dividend, T):
    """The window sums at 50 significant digits, from the same -log q."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lq = [mpmath.mpf(float(x)) for x in logq]
        # prefix sums of q_s D_s; 50 digits absorb their cancellation
        prefix = [mpmath.mpf(0)]
        for s in range(1, len(lq)):
            prefix.append(prefix[-1] + mpmath.exp(-lq[s]) * float(dividend[s]))
        return np.array(
            [
                float(mpmath.exp(lq[t]) * (prefix[t + T] - prefix[t]))
                for t in range(len(lq) - T)
            ]
        )


def near_boundary_path(offset):
    # productivity within 1e-6 of the upper threshold: rho -> 1, rates
    # still drifting toward one at the end of the path
    a = thresholds(cp(0.4)).high + offset
    return simulate_from_price(cp(a), p0=5.0, horizon=600)


@pytest.mark.parametrize(
    "make_path",
    [
        lambda: near_boundary_path(-5e-7),
        lambda: near_boundary_path(5e-7),
        falling_rate_path,
    ],
    ids=["below_threshold_high", "above_threshold_high", "rates_below_one"],
)
def test_window_sums_match_50_digit_oracle(make_path):
    path = make_path()
    logq = _log_discount(path.rate[:-1])
    n = logq.size
    for T in (1, 37, 200, n - 1):
        sums, _ = _window_sums(logq, path.dividend, T)
        exact = mp_window_sums(logq, path.dividend, T)
        assert np.max(np.abs(sums - exact) / exact) <= 1e-13, T


def test_valuation_names_the_overflow_of_a_path():
    # an unbalanced bubbly path outgrows the doubles at t = 1020; its
    # yields D/inf = 0 would otherwise pass for a convergent series
    p = BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=2.13, rent=1.0)
    path = construct_equilibrium(p, 2.0, 1100).path
    for check in (
        lambda: fundamental_value(path, 500),
        lambda: detect_bubble(path),
        lambda: no_arbitrage_residuals(path),
    ):
        with pytest.raises(ValueError, match="price is inf at t = 1020"):
            check()
