"""Two-sector land economy: thresholds, steady states, full-investment
dynamics, backward construction, shocks, and time variation.

Oracle values are exact rationals for the canonical calibration
pi = 0.1, beta = 0.95, delta = 0.08, D = 1, X = 1, worked out by hand:

    lower threshold  (1-b)/b + d            = 63/475
    upper threshold  (1-b)/(b pi) + d       = 288/475
    price-map slope  b pi (A+1-d)/(1-b+b pi): 627/725 at A=0.4, 1539/1450 at 0.7
    price-map drift  b (1-pi) D/(1-b+b pi)  = 171/29
    fixed point (A=0.4)                     = 4275/98
    balanced rate    (1-b pi (A+1-d))/(b(1-pi)): 4373/4275 at 0.4, 8461/8550 at 0.7
    steady wealth (A=0.4)                   = 2500/49
    wealth floor     DX/((1-b) b (1-pi)(A+1-d)): 1e5/5643 at 0.4, 2e5/13851 at 0.7
"""

from types import SimpleNamespace

import numpy as np
import pytest

from bubblelab import (
    BareBonesParams,
    ConstructionError,
    ExplicitSeq,
    FeasibilityError,
    GeometricSeq,
    PolynomialSeq,
    RegimeKind,
    SeriesKind,
    balanced_rate,
    capital_return,
    classify_regime,
    constant,
    construct_equilibrium,
    detect_bubble,
    longrun_rate,
    min_wealth,
    price_drift,
    price_recurrence,
    price_slope,
    simulate_from_price,
    simulate_regime_switch,
    simulate_timevarying,
    solve_affine,
    steady_path,
    steady_state,
    thresholds,
    timevarying_threshold,
)

TH_LOW = 63 / 475
TH_HIGH = 288 / 475
RHO_LOW = 627 / 725          # slope at A = 0.4
RHO_HIGH = 1539 / 1450       # slope at A = 0.7
DRIFT = 171 / 29
FP_PRICE = 4275 / 98         # price fixed point at A = 0.4
SS_RATE = 4373 / 4275
SS_WEALTH = 2500 / 49
CF_RATE_HIGH = 8461 / 8550   # counterfactual balanced rate at A = 0.7
WMIN_LOW = 100_000 / 5_643   # wealth floor at A = 0.4
WMIN_HIGH = 200_000 / 13_851  # wealth floor at A = 0.7


def cp(a: float, rent: float = 1.0, **kw) -> BareBonesParams:
    return BareBonesParams(
        pi=0.1, beta=0.95, delta=0.08, productivity=a, rent=rent, **kw
    )


# --- thresholds and steady states -----------------------------------------


def test_threshold_oracles():
    low, high = thresholds(cp(0.4))
    assert low == pytest.approx(TH_LOW, rel=1e-14)
    assert high == pytest.approx(TH_HIGH, rel=1e-14)
    # at pi = 1 every saver invests and the cutoffs coincide
    l1, h1 = thresholds(SimpleNamespace(pi=1.0, beta=0.95, delta=0.08))
    assert l1 == h1


def test_thresholds_of_arrays_are_the_scalar_thresholds():
    # a sweep grid calls thresholds on a namespace of float64 arrays
    rng = np.random.default_rng(28)
    pi, beta, delta = rng.uniform(0.01, 0.99, (3, 200))
    low, high = thresholds(SimpleNamespace(pi=pi, beta=beta, delta=delta))
    for i, (p, b, d) in enumerate(zip(pi.tolist(), beta.tolist(), delta.tolist())):
        th = thresholds(BareBonesParams(pi=p, beta=b, delta=d, productivity=0.4, rent=1.0))
        assert (low[i], high[i]) == th


def test_coefficient_oracles():
    assert price_slope(cp(0.4)) == pytest.approx(RHO_LOW, rel=1e-14)
    assert price_slope(cp(0.7)) == pytest.approx(RHO_HIGH, rel=1e-14)
    assert price_drift(cp(0.4)) == pytest.approx(DRIFT, rel=1e-14)
    assert price_drift(cp(0.7)) == pytest.approx(DRIFT, rel=1e-14)
    assert balanced_rate(cp(0.4)) == pytest.approx(SS_RATE, rel=1e-14)
    assert balanced_rate(cp(0.7)) == pytest.approx(CF_RATE_HIGH, rel=1e-14)
    assert capital_return(cp(0.4)) == pytest.approx(1.32, rel=1e-15)


def test_interior_steady_state():
    ss = steady_state(cp(0.4))
    assert ss is not None
    assert ss.regime is RegimeKind.FUNDAMENTAL_BALANCED
    assert ss.price == pytest.approx(FP_PRICE, rel=1e-13)
    assert ss.rate == pytest.approx(SS_RATE, rel=1e-13)
    assert ss.wealth == pytest.approx(SS_WEALTH, rel=1e-13)
    assert ss.capital == pytest.approx(0.095 * SS_WEALTH, rel=1e-13)
    assert ss.phi == 0.1
    assert not ss.phi_indeterminate
    # the rate prices the asset: R P = P + D
    assert ss.rate * ss.price == pytest.approx(ss.price + 1.0, rel=1e-13)
    # price is the land share of savings
    assert ss.price == pytest.approx(0.95 * 0.9 * ss.wealth, rel=1e-13)


def test_land_only_steady_state():
    for a in (0.0, 0.1):
        ss = steady_state(cp(a))
        assert ss.regime is RegimeKind.LAND_ONLY
        assert ss.price == pytest.approx(19.0, rel=1e-14)
        assert ss.wealth == pytest.approx(20.0, rel=1e-14)
        assert ss.rate == pytest.approx(20.0 / 19.0, rel=1e-14)
        assert ss.capital == 0.0
        assert ss.phi == 0.0
        assert not ss.phi_indeterminate
    # W = D X / (1 - beta): two units of land double the wealth; the price
    # per unit is beta D / (1 - beta) whatever X is
    two = steady_state(cp(0.1, land_supply=2.0))
    assert two.wealth == pytest.approx(40.0, rel=1e-14)
    assert two.price == pytest.approx(19.0, rel=1e-14)
    # at the cutoff investors are indifferent and the split is a convention
    p_edge = cp(thresholds(cp(0.4)).low)
    assert steady_state(p_edge).phi_indeterminate


def test_no_steady_state_in_bubbly_region():
    assert steady_state(cp(0.7)) is None
    assert steady_state(cp(thresholds(cp(0.4)).high)) is None
    with pytest.raises(ValueError):
        steady_path(cp(0.7), horizon=10)


def test_regime_grid():
    assert classify_regime(cp(0.0)).kind is RegimeKind.LAND_ONLY
    assert classify_regime(cp(0.1)).kind is RegimeKind.LAND_ONLY
    assert classify_regime(cp(0.4)).kind is RegimeKind.FUNDAMENTAL_BALANCED
    assert classify_regime(cp(0.7)).kind is RegimeKind.BUBBLY_UNBALANCED
    edge = classify_regime(cp(thresholds(cp(0.4)).high))
    assert edge.kind is RegimeKind.BOUNDARY_NO_BUBBLE
    assert [classify_regime(cp(a)).has_bubble for a in (0.1, 0.4, 0.7)] == [
        False,
        False,
        True,
    ]


def test_necessity_triple():
    reg = classify_regime(cp(0.7))
    t = reg.necessity
    assert t.fundamental_rate == pytest.approx(CF_RATE_HIGH, rel=1e-14)
    assert t.dividend_growth == 1.0
    assert t.economy_growth == pytest.approx(RHO_HIGH, rel=1e-14)
    # bubble needs rate < rent growth < economy growth, and here it holds
    assert t.holds
    # in the balanced region the counterfactual rate exceeds rent growth
    assert not classify_regime(cp(0.4)).necessity.holds
    assert not classify_regime(cp(0.1)).necessity.holds


def test_longrun_rate_piecewise():
    assert longrun_rate(cp(0.1)) == pytest.approx(20.0 / 19.0, rel=1e-14)
    assert longrun_rate(cp(0.4)) == pytest.approx(SS_RATE, rel=1e-14)
    assert longrun_rate(cp(0.7)) == pytest.approx(RHO_HIGH, rel=1e-14)


def test_longrun_rate_continuous_at_cutoffs():
    th = thresholds(cp(0.4))
    for cut, value in ((th.low, 1.0 / 0.95), (th.high, 1.0)):
        below = longrun_rate(cp(cut - 1e-13))
        at = longrun_rate(cp(cut))
        above = longrun_rate(cp(cut + 1e-13))
        assert abs(below - above) < 1e-12
        assert abs(at - value) < 1e-12


# --- full-investment dynamics ---------------------------------------------


def test_wealth_floor_oracles():
    assert min_wealth(cp(0.4)) == pytest.approx(WMIN_LOW, rel=1e-13)
    assert min_wealth(cp(0.7)) == pytest.approx(WMIN_HIGH, rel=1e-13)


def test_feasibility_enforcement():
    p = cp(0.7)
    bound = min_wealth(p)
    with pytest.raises(FeasibilityError):
        simulate_timevarying(p, w0=bound * (1.0 - 1e-6), horizon=10)
    # at the floor the land return starts exactly at the capital return
    res = simulate_timevarying(p, w0=bound, horizon=10)
    assert res.violations == ()
    assert res.path.rate[0] == pytest.approx(capital_return(p), rel=1e-12)
    # opt-out produces the path but reports it, and early land returns
    # exceed what capital pays
    low = simulate_timevarying(p, w0=5.0, horizon=10, require_feasible=False)
    assert low.violations[0] == 0
    assert low.path.rate[0] > capital_return(p)


def test_simulate_forward_validation():
    # held constant below threshold_low, capital is dominated: no start
    # admits full investment, whether feasibility is enforced or not
    refusal = r"full investment needs productivity > 0\.13263"
    with pytest.raises(ValueError, match=refusal):
        simulate_timevarying(cp(0.1), w0=50.0, horizon=10, require_feasible=False)
    with pytest.raises(ValueError, match=refusal):
        simulate_from_price(cp(0.1), p0=5.0, horizon=10)
    # a given sequence is judged by its arbitrage violations alone: from
    # w0 = 50 wealth falls until land outruns capital at t = 7
    res = simulate_timevarying(cp(0.1), 50.0, 10, constant(0.1), require_feasible=False)
    assert res.violations == (7, 8, 9)
    with pytest.raises(ValueError):
        simulate_timevarying(cp(0.4), w0=-1.0, horizon=10)
    with pytest.raises(ValueError):
        simulate_timevarying(cp(0.4), w0=50.0, horizon=0)
    with pytest.raises(ValueError):
        simulate_from_price(cp(0.4), p0=0.0, horizon=10)


def _check_accounting(p: BareBonesParams, path) -> None:
    P, W, K = path.price, path.wealth, path.capital
    D, X = p.rent, p.land_supply
    rk = capital_return(p)
    # savings split: capital plus land purchases absorb the saved share
    assert np.allclose(K + P * X, p.beta * W, rtol=1e-12)
    # wealth accounting: capital payoff plus cum-rent land value
    assert np.allclose(W[1:], rk * K[:-1] + (P[1:] + D) * X, rtol=1e-10)
    # goods market: consumption plus investment = output plus rents
    assert np.allclose(
        (1.0 - p.beta) * W[1:] + K[1:], rk * K[:-1] + D * X, rtol=1e-10
    )
    # realized land returns match the rate series
    assert np.allclose(
        path.rate[:-1], (P[1:] + D) / P[:-1], rtol=1e-12, equal_nan=True
    )


def test_path_identities_balanced_region():
    p = cp(0.4)
    path = simulate_from_price(p, p0=5.0, horizon=200)
    _check_accounting(p, path)
    # the price start is wealth p0 X / (beta (1-pi)) = 5/0.855, below the floor
    res = simulate_timevarying(p, 5.0 / (0.95 * 0.9), 200, require_feasible=False)
    assert np.array_equal(res.path.price, path.price)
    assert res.violations[0] == 0


def test_path_identities_bubbly_region():
    p = cp(0.7)
    path = simulate_timevarying(p, w0=30.0, horizon=200).path
    _check_accounting(p, path)


def test_convergence_to_fixed_point():
    p = cp(0.4)
    path = simulate_from_price(p, p0=5.0, horizon=500)
    assert abs(path.price[500] - FP_PRICE) < 1e-6
    # monotone approach from below, flat once the float plateau is reached
    dp = np.diff(path.price)
    assert np.all(dp >= 0) and np.all(dp[:40] > 0)
    assert path.rate[300] == pytest.approx(SS_RATE, abs=1e-10)
    # rates fall toward the balanced rate
    dr = np.diff(path.rate[:300])
    assert np.all(dr <= 1e-12) and np.all(dr[:40] < 0)


def test_divergence_above_upper_cutoff():
    p = cp(0.7)
    path = simulate_from_price(p, p0=5.0, horizon=500)
    ratios = path.price[1:] / path.price[:-1]
    assert ratios[-1] == pytest.approx(RHO_HIGH, abs=1e-8)
    assert path.rate[499] == pytest.approx(RHO_HIGH, abs=1e-8)
    # price/rent diverges: rents become negligible relative to the price
    assert path.price_rent()[-1] > 1e10


def test_price_map_matches_simulation():
    p = cp(0.4)
    rec = price_recurrence(p, p0=5.0)
    assert rec.slope == price_slope(p)
    assert rec.drift == price_drift(p)
    assert price_drift(p) / (1.0 - price_slope(p)) == pytest.approx(FP_PRICE, rel=1e-13)
    path = simulate_from_price(p, p0=5.0, horizon=120)
    closed = np.array([solve_affine(rec, t) for t in range(121)])
    assert np.allclose(path.price, closed, rtol=1e-11)


def test_steady_path_is_constant():
    p = cp(0.4)
    path = steady_path(p, horizon=10)
    assert np.allclose(path.price, FP_PRICE, rtol=1e-13)
    assert np.allclose(path.wealth, SS_WEALTH, rtol=1e-13)
    assert np.allclose(path.rate[:-1], SS_RATE, rtol=1e-13)
    assert np.isnan(path.rate[-1])
    _check_accounting(p, path)


def test_boundary_productivity_gives_linear_growth():
    p = cp(thresholds(cp(0.4)).high)
    rec = price_recurrence(p, p0=1.0)
    assert rec.unit_slope
    path = simulate_timevarying(p, w0=20.0, horizon=100).path
    # unit slope: wealth and price climb by a constant step each period
    steps_w = np.diff(path.wealth)
    steps_p = np.diff(path.price)
    assert np.ptp(steps_w) < 1e-10
    assert steps_w[0] == pytest.approx(1.0 / 0.145, rel=1e-12)
    assert steps_p[0] == pytest.approx(DRIFT, rel=1e-12)
    # land returns stay above 1 but decay toward it
    r = path.rate[:-1]
    assert np.all(r > 1.0)
    assert np.all(np.diff(r) < 0)
    _check_accounting(p, path)


# --- backward construction from an initial capital stock -------------------


def _check_constructed(p: BareBonesParams, eq, horizon: int) -> None:
    path = eq.path
    j = eq.prephase_length
    rk = capital_return(p)
    bound = min_wealth(p)
    assert eq.w_switch >= bound
    if j >= 1:
        assert eq.w_switch < p.beta * rk * bound
    if j <= horizon:
        assert path.wealth[j] == eq.w_switch
        assert np.all(path.phi[j:] == p.pi)
    # interior shares strictly inside (0, pi) before the switch
    pre = path.phi[: min(j, horizon + 1)]
    assert np.all((pre > 0.0) & (pre < p.pi))
    # both assets pay the capital return during the pre-phase
    upto = min(j, horizon)
    assert np.all(path.rate[:upto] == rk)
    assert eq.prephase_rate_residual <= 1e-10
    # wealth grows at beta * Rk while shares are interior
    if upto > 0:
        growth = path.wealth[1 : upto + 1] / path.wealth[:upto]
        assert np.allclose(growth, p.beta * rk, rtol=1e-12)
    _check_accounting(p, path)


def test_construct_from_positive_capital():
    p = cp(0.4)
    eq = construct_equilibrium(p, k0=1.0, horizon=40)
    _check_constructed(p, eq, 40)


def test_construct_from_zero_capital():
    p = cp(0.4)
    eq = construct_equilibrium(p, k0=0.0, horizon=40)
    assert eq.prephase_length >= 1  # zero capital starts below the floor
    _check_constructed(p, eq, 40)


def test_construct_with_large_endowment_skips_prephase():
    p = cp(0.4)
    eq = construct_equilibrium(p, k0=500.0, horizon=20)
    assert eq.prephase_length == 0
    assert eq.path.wealth[0] == eq.w_switch
    _check_constructed(p, eq, 20)


def test_construct_bubbly_region():
    p = cp(0.7)
    eq = construct_equilibrium(p, k0=0.5, horizon=40)
    _check_constructed(p, eq, 40)
    # after the switch prices grow without bound
    tail = eq.path.price[eq.prephase_length :]
    assert tail[-1] > tail[0]


def test_construct_short_horizon_inside_prephase():
    p = cp(0.4)
    full = construct_equilibrium(p, k0=0.0, horizon=40)
    j = full.prephase_length
    if j >= 2:
        eq = construct_equilibrium(p, k0=0.0, horizon=j - 1)
        assert eq.prephase_length == j
        assert eq.path.price.size == j
        growth = eq.path.wealth[1:] / eq.path.wealth[:-1]
        assert np.allclose(growth, 0.95 * capital_return(p), rtol=1e-10)
    # from k0 = 0 at A = 0.7 the pre-phase lasts j = 2 periods; horizon 1
    # ends inside it, so rate[0] is the only pre-phase rate, and the last
    # rate has no t+1 observation
    eq = construct_equilibrium(cp(0.7), k0=0.0, horizon=1)
    assert eq.prephase_length == 2
    assert eq.path.rate[0] == capital_return(cp(0.7))
    assert np.isnan(eq.path.rate[-1])
    assert np.isfinite(eq.prephase_rate_residual)


def test_construct_scan_failure_reports_diagnostics():
    p = cp(0.4)
    with pytest.raises(ConstructionError) as exc:
        construct_equilibrium(p, k0=0.0, horizon=10, max_prephase=0)
    diag = exc.value.diagnostics
    assert diag["scanned_up_to"] == 0
    assert diag["w_bound"] == pytest.approx(WMIN_LOW, rel=1e-13)
    assert diag["k0"] == 0.0


def test_construct_validation():
    with pytest.raises(ValueError):
        construct_equilibrium(cp(0.1), k0=1.0, horizon=10)
    with pytest.raises(ValueError):
        construct_equilibrium(cp(0.4), k0=-1.0, horizon=10)
    with pytest.raises(ValueError):
        construct_equilibrium(cp(0.4), k0=1.0, horizon=0)


# --- productivity windows and time variation -------------------------------


def test_switch_moderate_shock_concave_boom():
    base, shock = cp(0.4), cp(0.5)
    path = simulate_regime_switch(base, shock, t_on=1, t_off=11, horizon=120)
    P = path.price
    assert P[0] == pytest.approx(FP_PRICE, rel=1e-13)
    # boom while the window is on
    assert np.all(np.diff(P[0:11]) > 0)
    # contracting increments: the map pulls toward a finite fixed point
    d2 = np.diff(P[0:11], n=2)
    assert np.all(d2 < 0)
    assert path.meta["arbitrage_violations"] == []
    gap = np.abs(P - FP_PRICE)
    assert np.all(np.diff(gap[11:]) < 0)
    assert gap[120] < 1e-4 * gap[11]


def test_switch_large_shock_convex_boom():
    base, shock = cp(0.4), cp(0.7)
    path = simulate_regime_switch(base, shock, t_on=1, t_off=11, horizon=120)
    P = path.price
    assert np.all(np.diff(P[0:11]) > 0)
    # expanding increments: inside the window the map slope exceeds one
    d2 = np.diff(P[0:11], n=2)
    assert np.all(d2 > 0)
    assert path.meta["arbitrage_violations"] == []
    gap = np.abs(P - FP_PRICE)
    assert np.all(np.diff(gap[11:]) < 0)
    assert gap[120] < 1e-4 * gap[11]
    # the large shock booms harder than the moderate one
    mod = simulate_regime_switch(cp(0.4), cp(0.5), 1, 11, 120)
    assert P[10] > mod.price[10]


def test_switch_rent_shock():
    base = cp(0.4)
    shock = cp(0.4, rent=1.2)
    path = simulate_regime_switch(base, shock, t_on=1, t_off=4, horizon=30)
    assert list(path.dividend[0:5]) == [1.0, 1.2, 1.2, 1.2, 1.0]
    assert np.all(path.price[1:4] > FP_PRICE - 1e-9)


def test_switch_empty_window_stays_at_steady_state():
    path = simulate_regime_switch(cp(0.4), cp(0.7), t_on=5, t_off=5, horizon=20)
    assert np.allclose(path.price, FP_PRICE, rtol=1e-12)


def test_switch_validation():
    with pytest.raises(ValueError):
        simulate_regime_switch(
            cp(0.4), BareBonesParams(0.2, 0.95, 0.08, 0.7, 1.0), 1, 11, 50
        )
    with pytest.raises(ValueError):
        simulate_regime_switch(cp(0.7), cp(0.4), 1, 11, 50)  # base not balanced
    with pytest.raises(ValueError):
        simulate_regime_switch(cp(0.1), cp(0.4), 1, 11, 50)
    with pytest.raises(ValueError):
        simulate_regime_switch(cp(0.4), cp(0.1), 1, 11, 50)  # shock below cutoff
    with pytest.raises(ValueError):
        simulate_regime_switch(cp(0.4), cp(0.5), 11, 1, 50)
    with pytest.raises(ValueError):
        simulate_regime_switch(cp(0.4), cp(0.5), 0, 60, 50)
    for t_off, horizon in ((1, 0), (0, -1)):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            simulate_regime_switch(cp(0.4), cp(0.5), 0, t_off, horizon)


def test_timevarying_constant_inputs_match_forward():
    p = cp(0.4)
    res = simulate_timevarying(p, w0=SS_WEALTH, horizon=50)
    ref = steady_path(p, horizon=50)
    assert np.allclose(res.path.price, ref.price, rtol=1e-14)
    assert np.allclose(res.path.wealth, ref.wealth, rtol=1e-14)
    assert res.violations == ()
    assert not res.bubble
    assert np.allclose(res.slope_ratio, RHO_LOW, rtol=1e-13)
    bub = simulate_timevarying(cp(0.7), w0=30.0, horizon=50)
    assert bub.bubble
    assert np.allclose(bub.slope_ratio, RHO_HIGH, rtol=1e-13)


def test_timevarying_feasibility():
    p = cp(0.7)
    with pytest.raises(FeasibilityError):
        simulate_timevarying(p, w0=5.0, horizon=20)
    res = simulate_timevarying(p, w0=5.0, horizon=20, require_feasible=False)
    assert res.violations[0] == 0
    assert res.path.rate[0] > capital_return(p)


@pytest.mark.filterwarnings("error")
def test_overflow_step_is_not_an_arbitrage_violation():
    # P overflows to inf at t = 1908, so land's return at t = 1907 is inf:
    # an overflow of the path, not land outrunning capital
    p = BareBonesParams(pi=0.5, beta=0.95, delta=0.1, productivity=0.7, rent=1.0)
    res = simulate_timevarying(p, w0=50.0, horizon=20000)
    assert np.isfinite(res.path.price[1907]) and res.path.price[1908] == np.inf
    assert res.violations == ()
    # a bubbly shock window long enough to overflow the boom
    path = simulate_regime_switch(cp(0.4), cp(3.0), t_on=1, t_off=2001, horizon=2000)
    assert path.price[-1] == np.inf
    assert path.meta["arbitrage_violations"] == []


def test_timevarying_growing_rents_shift_the_boundary():
    # with rents growing at G, the bubble needs the price-rent slope
    # beta pi (A+1-delta) / ((1-beta+beta pi) G) above one
    g = GeometricSeq(scale=1.0, ratio=1.02)
    verdicts = {}
    for a in (0.61, 0.63, 0.65):
        res = simulate_timevarying(cp(a), w0=40.0, horizon=400, rent=g)
        verdicts[a] = res.bubble
        assert res.violations == ()
    assert verdicts == {0.61: False, 0.63: False, 0.65: True}
    # slope ratios are constant here; pin the middle one
    mid = simulate_timevarying(cp(0.63), w0=40.0, horizon=50, rent=g)
    assert mid.slope_ratio[0] == pytest.approx(0.14725 / (0.145 * 1.02), rel=1e-12)


def test_timevarying_productivity_sequence():
    # productivity decaying toward the balanced region kills the bubble
    n = 301
    a_seq = ExplicitSeq(entries=tuple(0.7 if t < 20 else 0.4 for t in range(n)))
    res = simulate_timevarying(cp(0.7), w0=30.0, horizon=300, productivity=a_seq)
    assert not res.bubble
    assert res.slope_ratio[0] == pytest.approx(RHO_HIGH, rel=1e-13)
    assert res.slope_ratio[-1] == pytest.approx(RHO_LOW, rel=1e-13)
    assert res.path.price[-1] == pytest.approx(FP_PRICE, rel=1e-6)


# the price-rent slope once A_t has vanished: beta pi (1-delta) / (1-beta+beta pi)
SLOPE_NO_A = 437 / 725


def test_timevarying_verdict_follows_the_limit_slope():
    # A_t = 0.5 (1+t)^0.01 grows without bound, so the slope does and the
    # path is bubbly, though at t = 500 the slope still reads 0.951
    grow = simulate_timevarying(
        cp(0.7), w0=50.0, horizon=500, productivity=PolynomialSeq(0.5, 0.01)
    )
    assert grow.slope_ratio[-1] == pytest.approx(0.951, abs=5e-4)
    assert grow.bubble is True
    assert grow.series == (SeriesKind.CONVERGENT, 0.0)
    # A_t = 0.7 (1+t)^-0.01 fades: the slope tends to SLOPE_NO_A < 1 and
    # the yields to a constant, no bubble, though at t = 500 it reads 1.034
    fade = simulate_timevarying(
        cp(0.7), w0=50.0, horizon=500, productivity=PolynomialSeq(0.7, -0.01)
    )
    assert fade.slope_ratio[-1] == pytest.approx(1.034, abs=5e-4)
    assert fade.bubble is False
    assert fade.series == (SeriesKind.DIVERGENT, 1.0)
    # a growing rent divides the limit slope: yields decay at 1/L
    g = GeometricSeq(1.0, 1.02)
    res = simulate_timevarying(cp(0.7), w0=50.0, horizon=50, rent=g)
    assert res.series.tail_ratio == pytest.approx(1.02 / RHO_HIGH, rel=1e-14)


def test_timevarying_zero_productivity_generator_is_not_growing():
    # GeometricSeq(0, 1.5) is identically zero: the slope is SLOPE_NO_A
    # every period, and the yields are constant
    res = simulate_timevarying(
        cp(0.7), w0=50.0, horizon=300, productivity=GeometricSeq(0.0, 1.5),
        require_feasible=False,
    )
    assert res.slope_ratio[-1] == pytest.approx(SLOPE_NO_A, rel=1e-13)
    assert res.bubble is False
    assert detect_bubble(res.path).verdict == "fundamental"


def test_timevarying_exact_verdict_is_the_paths_own():
    """Away from the unit slope, the exact verdict from the sequences'
    tails is the one ``detect_bubble`` reads off a long path: constant,
    fading and growing productivity under constant, growing, shrinking and
    polynomial rents, across both sides of acceptance test 11's boundary
    (0.61 and 0.65 at rent growth 1.02)."""
    rents = (
        constant(1.0), GeometricSeq(1.0, 1.02), GeometricSeq(1.0, 0.99),
        PolynomialSeq(1.0, 0.5),
    )
    verdicts = set()
    for a in (0.4, 0.5, 0.61, 0.65, 0.7, 0.8):
        prods = (
            constant(a), GeometricSeq(a, 0.995), GeometricSeq(a, 1.001),
            PolynomialSeq(a, -0.5),
        )
        for rent in rents:
            for prod in prods:
                res = simulate_timevarying(
                    cp(a), 40.0, 1200, prod, rent, require_feasible=False
                )
                det = detect_bubble(res.path)
                assert det.series.kind is res.series.kind, (a, rent, prod)
                verdicts.add(det.verdict)
    assert verdicts == {"bubbly", "fundamental"}


def test_timevarying_threshold_formula():
    # at unit rent growth the formula collapses to the upper cutoff
    assert timevarying_threshold(0.1, 0.95, 0.08, 1.0) == pytest.approx(
        TH_HIGH, abs=1e-14
    )
    assert timevarying_threshold(0.1, 0.95, 0.08, 1.02) == pytest.approx(
        121 / 190, abs=1e-14
    )
    # growth raises the bar: faster rent growth needs higher productivity
    ts = [timevarying_threshold(0.1, 0.95, 0.08, g) for g in (1.0, 1.01, 1.02)]
    assert ts[0] < ts[1] < ts[2]
    with pytest.raises(ValueError):
        timevarying_threshold(0.1, 0.95, 0.08, 0.0)
    with pytest.raises(ValueError):
        timevarying_threshold(0.0, 0.95, 0.08, 1.0)
    with pytest.raises(ValueError):
        timevarying_threshold(0.1, 1.0, 0.08, 1.0)


def test_timevarying_validation():
    with pytest.raises(ValueError):
        simulate_timevarying(cp(0.4), w0=-1.0, horizon=10)
    with pytest.raises(ValueError):
        simulate_timevarying(cp(0.4), w0=50.0, horizon=0)
    with pytest.raises(ValueError):
        simulate_timevarying(
            cp(0.4), w0=50.0, horizon=10,
            rent=ExplicitSeq(entries=(1.0,) * 5 + (0.0,) + (1.0,) * 5),
        )


def test_params_validation():
    with pytest.raises(ValueError):
        BareBonesParams(pi=0.0, beta=0.95, delta=0.08, productivity=0.4, rent=1.0)
    with pytest.raises(ValueError):
        BareBonesParams(pi=0.1, beta=1.0, delta=0.08, productivity=0.4, rent=1.0)
    with pytest.raises(ValueError):
        BareBonesParams(pi=0.1, beta=0.95, delta=0.0, productivity=0.4, rent=1.0)
    with pytest.raises(ValueError):
        BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=-0.1, rent=1.0)
    with pytest.raises(ValueError):
        BareBonesParams(pi=0.1, beta=0.95, delta=0.08, productivity=0.4, rent=0.0)
    with pytest.raises(ValueError):
        BareBonesParams(
            pi=0.1, beta=0.95, delta=0.08, productivity=0.4, rent=1.0,
            land_supply=0.0,
        )


@pytest.mark.parametrize(
    ("pi", "beta", "delta", "a"),
    [(0.1, 0.95, 0.08, 0.6063157894736845), (0.2, 0.8, 0.05, 1.2999999999999992)],
)
def test_no_steady_state_one_ulp_below_the_upper_threshold(pi, beta, delta, a):
    # below threshold_high, yet the balanced rate rounds to 1: the steady
    # state follows the regime classifier, not the threshold
    p = BareBonesParams(pi=pi, beta=beta, delta=delta, productivity=a, rent=1.0)
    assert a < thresholds(p).high and balanced_rate(p) == 1.0
    assert classify_regime(p).kind is RegimeKind.BOUNDARY_NO_BUBBLE
    assert steady_state(p) is None
    with pytest.raises(ValueError, match="no steady state"):
        steady_path(p, horizon=10)
    base = BareBonesParams(pi=pi, beta=beta, delta=delta, productivity=a / 2, rent=1.0)
    with pytest.raises(ValueError, match="strictly between the thresholds"):
        simulate_regime_switch(p, base, 1, 2, 10)
