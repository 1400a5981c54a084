"""Pure-bubble overlapping generations model and its stochastic variant."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import scenarios
from bubblelab.cli import main
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
    # P falls like 3^-t, so P = 0.5 passes the smallest normal double around
    # t = 645 and rounds to zero, below the smallest subnormal one, at
    # t = 679; the error names the first zero price
    assert samuelson_price_path(P, p0=0.5, horizon=678).price[-1] > 0.0
    with pytest.raises(ValueError, match=r"underflows to zero at t = 679:"):
        samuelson_price_path(P, p0=0.5, horizon=5000)
    # the smallest double is a start; a third of it rounds to zero
    with pytest.raises(ValueError, match=r"underflows to zero at t = 1:"):
        samuelson_price_path(P, p0=5e-324, horizon=10)
    # a start below 1/DBL_MAX is a price like any other
    price = samuelson_price_path(P, p0=1e-309, horizon=5).price
    assert price[0] == 1e-309
    assert price[5] == pytest.approx(1e-309 / 3**5, rel=1e-6)


@pytest.mark.parametrize("young_endow, old_endow, p0, zero_at", [
    # s = beta*a/((1-beta)*b) is 1e608: a start below P* = 5e307 is
    # refused at the first step, P_1 = 4e-609; P* itself stays put
    (1e308, 1e-300, 0.4, 1),
    (1e308, 1e-300, 5e307, None),
    # s is above DBL_MAX, and so is 1/P_1 for p0 = 0.4, yet P_1 = 2e-310
    # and 2e-320 are subnormal doubles; P_2 rounds to zero
    (1.0, 1e-310, 0.4, 2),
    (1.0, 1e-320, 0.4, 2),
], ids=["large-s", "large-s-stationary", "subnormal-b", "deep-subnormal-b"])
def test_extreme_endowments_are_refused_only_below_the_smallest_double(
    young_endow, old_endow, p0, zero_at
):
    p = SamuelsonParams(beta=0.5, young_endow=young_endow, old_endow=old_endow)
    if zero_at is None:
        assert samuelson_equilibria(p).stationary_price == p0
        assert np.all(samuelson_price_path(p, p0, horizon=10).price == p0)
        return
    with pytest.raises(ValueError, match=rf"underflows to zero at t = {zero_at}:"):
        samuelson_price_path(p, p0, horizon=10)


@pytest.mark.parametrize("beta, young_endow, old_endow", [
    (0.55, 2.5, 1.2),
    (0.5, 1e308, 1e-300),
])
def test_a_stationary_start_is_constant_bit_for_bit(beta, young_endow, old_endow):
    p = SamuelsonParams(beta, young_endow, old_endow)
    star = samuelson_equilibria(p).stationary_price
    price = samuelson_price_path(p, star, horizon=5000).price
    assert price.tobytes() == np.full(5001, star).tobytes()


def test_the_default_run_writes_the_stationary_price_in_every_row(tmp_path, capsys):
    ini = tmp_path / "s.ini"
    ini.write_text(
        "[s]\nmodel = samuelson\nbeta = 0.55\nyoung_endow = 2.5\nold_endow = 1.2\n"
        "horizon = 200\ncolumns = t, P, R\n"
    )
    assert main(["run", str(ini), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = [ln.split(",") for ln in (tmp_path / "s.csv").read_text().splitlines()[1:]]
    assert len(rows) == 201
    assert all(r[1:] == ["0.835", "1"] for r in rows[:-1])
    assert rows[-1][1:] == ["0.835", "nan"]


def test_a_run_without_bubbly_equilibria_fails_with_or_without_p0(tmp_path, capsys):
    ini = tmp_path / "n.ini"
    poor = "model = samuelson\nbeta = 0.2\nyoung_endow = 1\nold_endow = 4\n"
    ini.write_text(f"[auto]\n{poor}\n[forced]\n{poor}p0 = 0.1\n")
    for name in ("auto", "forced"):
        assert main(["run", str(ini), name, "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {ini} [{name}]: no positive stationary price at these "
            "endowments; only autarky exists\n"
        )


def exact_prices(p: SamuelsonParams, p0: float, horizon: int) -> list[float]:
    """P_t = p0 / (r + (1-r) s^t), r = p0/P*, for the doubles' exact values
    and the library's P*, each rounded once to a double."""
    beta, a, b, start, star = map(
        Fraction,
        (p.beta, p.young_endow, p.old_endow, p0, samuelson_equilibria(p).stationary_price),
    )
    s, r = beta * a / ((1 - beta) * b), start / star
    # P_t = start * D^t / (r D^t + (1-r) N^t) with s = N/D, over integers
    num = start.numerator * r.denominator
    out, n_t, d_t = [], 1, 1
    for _ in range(horizon + 1):
        den = start.denominator * (r.numerator * d_t + (r.denominator - r.numerator) * n_t)
        out.append(num * d_t / den)
        n_t, d_t = n_t * s.numerator, d_t * s.denominator
    return out


@st.composite
def samuelson_starts(draw):
    """A bubbly economy, a start in (0, P*] that is P* itself about half of
    the time, and a horizon of at most 200. The slope s = 1/u is at most
    10, so no price of the path falls out of the normal doubles."""
    beta = draw(st.floats(0.05, 0.95))
    a = draw(st.floats(0.1, 100.0))
    u = draw(st.floats(0.1, 0.95))
    p = SamuelsonParams(beta, a, beta * a / (1.0 - beta) * u)
    star = samuelson_equilibria(p).stationary_price
    p0 = draw(st.one_of(st.just(star), st.floats(1e-3, 1.0).map(lambda f: f * star)))
    return p, p0, draw(st.integers(1, 200))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(samuelson_starts())
def test_every_price_is_within_1e_12_of_the_exact_closed_form(case):
    p, p0, horizon = case
    got = samuelson_price_path(p, p0, horizon).price
    want = np.array(exact_prices(p, p0, horizon))
    assert np.all(np.abs(got / want - 1.0) <= 1e-12)


@pytest.mark.parametrize("young_endow, old_endow, p0, horizon", [
    (3.0, 1.0, 0.5, 678),     # subnormal from t = 645, the last cell above zero
    (1.0, 1e-310, 0.4, 1),    # s above DBL_MAX: P_1 = 2e-310
    (1.0, 1e-320, 0.4, 1),    # P_1 = 2e-320
], ids=["slow-decay", "subnormal-b", "deep-subnormal-b"])
def test_subnormal_prices_are_the_exact_closed_form(young_endow, old_endow, p0, horizon):
    p = SamuelsonParams(beta=0.5, young_endow=young_endow, old_endow=old_endow)
    got = samuelson_price_path(p, p0, horizon).price
    want = np.array(exact_prices(p, p0, horizon))
    assert np.all(got > 0.0)
    # a subnormal holds fewer digits: within one of its units beyond 1e-12
    assert np.all(np.abs(got - want) <= 1e-12 * want + 2.0**-1074)


def test_random_admissible_starts_stay_positive_and_die_out():
    rng = np.random.default_rng(11)
    for _ in range(50):
        beta = rng.uniform(0.3, 0.9)
        a = rng.uniform(1.0, 10.0)
        # keep the slope s = beta*a/((1-beta)*b) below 1/0.3 so that 300
        # periods cannot take the price below the smallest double
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
    # the shortest path: t = 0 and t = 1
    assert len(weil_sample_path(W, seed=3, horizon=1)) == 2


def test_weil_sample_paths_are_seed_deterministic():
    a = weil_sample_path(W, seed=42, horizon=300)
    b = weil_sample_path(W, seed=42, horizon=300)
    assert np.array_equal(a.price, b.price)


def weil_summary(p: WeilParams) -> dict:
    """The run summary of a Weil scenario with these parameters."""
    return scenarios.MODELS["weil"].run(p, {"seed": 0, "horizon": 100}).summary


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
    assert weil_summary(W)["mean_collapse_time"] == pytest.approx(5.0)


def test_weil_immortal_bubble():
    sure = WeilParams(beta=0.5, young_endow=3.0, old_endow=1.0, survival=1.0)
    path = weil_sample_path(sure, seed=0, horizon=100)
    assert path.meta["collapse_time"] is None
    assert math.isinf(weil_summary(sure)["mean_collapse_time"])
    assert np.all(path.price == weil_stationary_price(sure))
