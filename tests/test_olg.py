"""Pure-bubble overlapping generations model and its stochastic variant."""

import math
import re

import numpy as np
import pytest

from bubblelab.olg import (
    SamuelsonParams,
    WeilParams,
    autarky_rate,
    samuelson_equilibria,
    samuelson_price_path,
    weil_foc_residual,
    weil_sample_path,
    weil_stationary_price,
    young_demand,
)

P = SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)


def test_stationary_price_oracle():
    eq = samuelson_equilibria(P)
    # beta*a - (1-beta)*b = 1.5 - 0.5
    assert eq.stationary_price == pytest.approx(1.0, abs=1e-12)
    assert eq.has_bubbly
    assert eq.bubbly_interval == pytest.approx((0.0, 1.0))
    assert eq.fundamental_exists


def test_no_bubble_when_autarky_rate_above_one():
    poor = SamuelsonParams(beta=0.2, young_endow=1.0, old_endow=4.0)
    eq = samuelson_equilibria(poor)
    assert eq.stationary_price is None
    assert not eq.has_bubbly
    assert eq.bubbly_interval is None
    assert autarky_rate(poor) > 1.0


def test_autarky_rate_oracle():
    # (1-beta)*b / (beta*a) = 0.5/1.5
    assert autarky_rate(P) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_path_from_half_stationary():
    path = samuelson_price_path(P, p0=0.5, horizon=200)
    # inverse price follows x -> 3x - 2 from x0 = 2, so P1 = 1/4
    assert path.price[0] == 0.5
    assert path.price[1] == pytest.approx(0.25, abs=1e-12)
    assert path.price[200] < 1e-6
    assert np.all(path.price > 0)
    assert np.all(np.diff(path.price) < 0)


def test_path_at_stationary_is_constant():
    path = samuelson_price_path(P, p0=1.0, horizon=50)
    assert path.price == pytest.approx(np.ones(51), abs=1e-12)
    assert path.rate[:-1] == pytest.approx(np.ones(50), abs=1e-12)


def test_path_market_clearing_every_period():
    # portfolio FOC in product form, stable at tiny prices:
    # (1-beta) * P_t * (b + P_{t+1}) = beta * P_{t+1} * (a - P_t)
    for p0 in (0.1, 0.5, 1.0):
        path = samuelson_price_path(P, p0=p0, horizon=100)
        pt, pn = path.price[:-1], path.price[1:]
        lhs = (1.0 - P.beta) * pt * (P.old_endow + pn)
        rhs = P.beta * pn * (P.young_endow - pt)
        assert np.all(np.abs(lhs / rhs - 1.0) < 1e-10)
        # direct unit asset demand while prices are well away from underflow
        for t in range(len(path) - 1):
            if path.price[t] < 1e-6:
                break
            c_young = young_demand(P, path.price[t], path.price[t + 1])
            asset_demand = (P.young_endow - c_young) / path.price[t]
            assert asset_demand == pytest.approx(1.0, abs=1e-8)


def test_path_rejects_inadmissible_starts():
    with pytest.raises(ValueError):
        samuelson_price_path(P, p0=1.0 + 1e-9, horizon=10)
    with pytest.raises(ValueError):
        samuelson_price_path(P, p0=0.0, horizon=10)
    poor = SamuelsonParams(beta=0.2, young_endow=1.0, old_endow=4.0)
    with pytest.raises(ValueError):
        samuelson_price_path(poor, p0=0.1, horizon=10)


def test_path_rejects_a_price_that_underflows_to_zero():
    # 1/P grows like 3^t, so P = 0.5 falls below the smallest double
    # around t = 650; the error names the first zero price
    assert samuelson_price_path(P, p0=0.5, horizon=646).price[-1] > 0.0
    with pytest.raises(ValueError, match=r"underflows to zero at t = 647:"):
        samuelson_price_path(P, p0=0.5, horizon=5000)
    # 1/p0 is inf, so the price is zero from the start
    with pytest.raises(ValueError, match=r"underflows to zero at t = 0:"):
        samuelson_price_path(P, p0=5e-324, horizon=10)


@pytest.mark.parametrize("young_endow, old_endow, coefficients", [
    # slope beta*a/((1-beta)*b) and drift -1/((1-beta)*b) both inf: a step
    # would be inf - inf, a NaN price
    (1.0, 1e-310, "slope inf, drift -inf"),
    (1.0, 1e-320, "slope inf, drift -inf"),
    # the slope alone: 1/P would be inf at t = 1 whatever the true price
    (1e308, 1e-300, "slope inf, drift -1.9999999999999998e+300"),
])
def test_path_rejects_an_inverse_map_that_overflows(young_endow, old_endow, coefficients):
    p = SamuelsonParams(beta=0.5, young_endow=young_endow, old_endow=old_endow)
    with pytest.raises(ValueError, match=re.escape(f"the map of 1/P overflows: {coefficients}")):
        samuelson_price_path(p, p0=0.4, horizon=10)


def test_random_admissible_starts_stay_positive_and_die_out():
    rng = np.random.default_rng(11)
    for _ in range(50):
        beta = rng.uniform(0.3, 0.9)
        a = rng.uniform(1.0, 10.0)
        # keep the inverse-price slope moderate so 300 periods cannot
        # overflow the inverse variable (price underflowing to 0.0)
        b = beta * a / (1.0 - beta) * rng.uniform(0.3, 0.9)
        p = SamuelsonParams(beta, a, b)
        star = samuelson_equilibria(p).stationary_price
        p0 = rng.uniform(0.05, 0.95) * star
        path = samuelson_price_path(p, p0, horizon=300)
        assert np.all(path.price > 0)
        assert path.price[-1] < 1e-4 * star


def test_inverse_recurrence_slope_and_fixed_point():
    # x_t = 1/P_t follows an affine map: successive steps grow by its slope
    # beta*a / ((1-beta)*b) = 3, and its fixed point is 1/stationary price
    x = 1.0 / samuelson_price_path(P, p0=0.5, horizon=20).price
    steps = np.diff(x)
    assert steps[1:] / steps[:-1] == pytest.approx(np.full(19, 3.0))
    fixed_point = (x[1] - 3.0 * x[0]) / (1.0 - 3.0)
    assert fixed_point == pytest.approx(1.0 / samuelson_equilibria(P).stationary_price)


# --- stochastic bubbles ---------------------------------------------------

W = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=0.8)


def test_weil_stationary_price_formula():
    # (survival*beta*a - (1-beta)*b) / (1-beta+survival*beta)
    expected = (0.8 * 0.5 * 3.0 - 0.5 * 1.0) / (0.5 + 0.8 * 0.5)
    assert weil_stationary_price(W) == pytest.approx(expected, abs=1e-15)
    assert weil_foc_residual(W, weil_stationary_price(W)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_weil_reduces_to_samuelson_at_full_survival():
    sure = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=1.0)
    assert weil_stationary_price(sure) == pytest.approx(1.0, abs=1e-15)
    assert sure.deterministic() == P


def test_weil_price_below_deterministic_level():
    assert weil_stationary_price(W) < 1.0


def test_weil_no_bubble_region():
    dead = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=0.3)
    # 0.3*0.5*3 = 0.45 <= 0.5
    assert weil_stationary_price(dead) is None
    with pytest.raises(ValueError):
        weil_sample_path(dead, seed=0, horizon=10)


def test_weil_sample_path_structure():
    level = weil_stationary_price(W)
    path = weil_sample_path(W, seed=3, horizon=400)
    ct = path.meta["collapse_time"]
    assert ct is not None and 1 <= ct <= 400
    assert np.all(path.price[:ct] == level)
    assert np.all(path.price[ct:] == 0.0)
    # alive: return 1; collapse step: return 0; afterwards undefined
    assert path.rate[: ct - 1] == pytest.approx(np.ones(ct - 1))
    assert path.rate[ct - 1] == 0.0
    assert np.all(np.isnan(path.rate[ct:]))


def test_weil_sample_paths_are_seed_deterministic():
    a = weil_sample_path(W, seed=42, horizon=300)
    b = weil_sample_path(W, seed=42, horizon=300)
    assert np.array_equal(a.price, b.price)


def test_weil_collapse_time_mean():
    # geometric with failure probability 0.2: mean 5
    times = []
    for seed in range(20_000):
        path = weil_sample_path(W, seed=seed, horizon=200)
        ct = path.meta["collapse_time"]
        assert ct is not None  # P(survive 200) = 0.8^200 ~ 4e-20
        times.append(ct)
    mean = np.mean(times)
    assert mean == pytest.approx(5.0, rel=0.02)
    assert path.meta["mean_collapse_time"] == pytest.approx(5.0)


def test_weil_immortal_bubble():
    sure = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=1.0)
    path = weil_sample_path(sure, seed=0, horizon=100)
    assert path.meta["collapse_time"] is None
    assert math.isinf(path.meta["mean_collapse_time"])
    assert np.all(path.price == weil_stationary_price(sure))
