"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line naming the guarantee it checks
(run ``pytest tests/test_acceptance.py -s`` to see them stream). Binding
comparisons are made against exact closed-form oracles frozen as rationals
for the canonical two-sector calibration (pi = 0.1, beta = 0.95,
delta = 0.08, D = X = 1); six-figure decimal anchors are additionally
checked at their own rounding precision.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from bubblelab import (
    BareBonesParams,
    BewleyParams,
    GeometricSeq,
    SamuelsonParams,
    SeriesKind,
    TiroleParams,
    bewley_price,
    bewley_validate,
    capital_return,
    classify_regime,
    construct_equilibrium,
    detect_bubble,
    fundamental_value,
    load_scenarios,
    longrun_rate,
    min_wealth,
    run_scenario,
    run_sweep_values,
    samuelson_equilibria,
    samuelson_price_path,
    savings_identity_residual,
    simulate_from_price,
    simulate_regime_switch,
    simulate_timevarying,
    steady_path,
    thresholds,
    timevarying_threshold,
    tirole_crowdin_steady,
    tirole_steady,
)

FIGURES = Path(__file__).resolve().parent.parent / "scenarios" / "figures.ini"

# frozen rational oracles for the canonical calibration
TH_LOW = 63 / 475
TH_HIGH = 288 / 475
RHO_HIGH = 1539 / 1450       # price-map slope at A = 0.7
FP_PRICE = 4275 / 98         # price fixed point at A = 0.4
V_LIMIT = 1450 / 89          # stationary fundamental value at A = 0.7

PI, BETA, DELTA = 0.1, 0.95, 0.08


def cp(a: float, **kw) -> BareBonesParams:
    return BareBonesParams(
        pi=PI, beta=BETA, delta=DELTA, productivity=a, rent=1.0,
        land_supply=1.0, **kw
    )


def guarantee(num: int, label: str):
    """Emit one PASS/FAIL line per acceptance check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {num:2d}  {label}")
                raise
            print(f"PASS {num:2d}  {label}")

        return wrapper

    return deco


def best_time(fn, repeats: int = 5) -> float:
    fn()  # warm up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@guarantee(1, "pure-bubble equilibrium set and asymptotic decay")
def test_01_pure_bubble_equilibrium_set():
    p = SamuelsonParams(beta=0.5, young_endow=3.0, old_endow=1.0)
    eq = samuelson_equilibria(p)
    assert eq.has_bubbly
    assert eq.stationary_price == 1.0
    path = samuelson_price_path(p, p0=0.5, horizon=200)
    assert abs(path.price[1] - 0.25) < 1e-10
    assert path.price[200] < 1e-6
    # the stationary start stays put
    flat = samuelson_price_path(p, p0=1.0, horizon=200)
    assert np.max(np.abs(flat.price - 1.0)) < 1e-10
    assert best_time(lambda: samuelson_price_path(p, 0.5, 200)) < 1e-3


@guarantee(2, "two-agent asset price with both Euler conditions")
def test_02_two_agent_price_and_euler():
    p = BewleyParams(beta=0.9, gamma=1.0, growth=1.0, rich_endow=2.0,
                     poor_endow=1.0)
    eq = bewley_price(p)
    assert eq.exists
    assert eq.price_level == pytest.approx(8 / 19, rel=1e-14)
    assert eq.price_level == pytest.approx(0.421053, abs=5e-7)
    # buyer indifference and seller slack, period by period
    report = bewley_validate(p, horizon=1000, tol=1e-12)
    assert report["periods"] == 1000
    assert report["max_rich_residual"] <= 1e-12
    assert report["min_poor_slack"] >= -1e-12


@guarantee(3, "capital steady states: crowd-out baseline and crowd-in variant")
def test_03_capital_crowding_steady_states():
    p = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0)
    ss = tirole_steady(p)
    k_fund = (0.95 * (2 / 3)) ** 1.5
    k_bub = ((1 / 3) / 0.6) ** 1.5
    assert ss.k_fundamental == pytest.approx(k_fund, rel=1e-14)
    assert ss.r_fundamental == pytest.approx(0.5 / 0.95 + 0.4, rel=1e-14)
    assert ss.r_fundamental < 1.0
    assert ss.bubbly is not None
    assert ss.bubbly.capital == pytest.approx(k_bub, rel=1e-14)
    assert ss.k_fundamental > ss.bubbly.capital
    assert ss.crowding == "out"
    # decimal anchors (k anchors loose: their sixth figure rounds off the
    # exact closed forms above)
    assert ss.r_fundamental == pytest.approx(0.926316, abs=5e-7)
    assert ss.k_fundamental == pytest.approx(0.504016, abs=1e-5)
    assert ss.bubbly.capital == pytest.approx(0.414087, abs=5e-7)
    assert ss.bubbly.price == pytest.approx(0.057972, abs=5e-7)
    # bubble plus capital absorb exactly the saved wage
    assert abs(savings_identity_residual(p)) < 1e-6
    scarce = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0,
                          entrepreneur_prob=0.05)
    cin = tirole_crowdin_steady(scarce)
    assert cin.k_fundamental == pytest.approx(
        (0.95 * (2 / 3) * 0.05 ** (1 / 3)) ** 1.5, rel=1e-14
    )
    assert cin.k_fundamental == pytest.approx(0.112703, abs=1e-5)
    assert cin.bubbly is not None
    assert cin.k_fundamental < cin.bubbly.capital
    assert cin.crowding == "in"


@guarantee(4, "productivity thresholds and long-run rate continuity")
def test_04_thresholds_and_rate_continuity():
    lo, hi = thresholds(cp(0.5))
    assert abs(lo - TH_LOW) < 1e-9
    assert abs(hi - TH_HIGH) < 1e-9
    assert lo == pytest.approx(0.132632, abs=5e-7)
    assert hi == pytest.approx(0.606316, abs=5e-7)
    eps = 1e-13
    for cut, value_at in ((lo, 1.0 / BETA), (hi, 1.0)):
        below = longrun_rate(cp(cut - eps))
        above = longrun_rate(cp(cut + eps))
        assert abs(above - below) < 1e-12
        assert abs(longrun_rate(cp(cut)) - value_at) < 1e-12


@guarantee(5, "price paths: convergence below and explosion above the cutoff")
def test_05_price_paths_both_regimes():
    stable = simulate_from_price(cp(0.4), p0=5.0, horizon=500)
    assert abs(stable.price[500] - FP_PRICE) < 1e-6
    assert stable.price[500] == pytest.approx(43.6225, abs=1e-4)
    explosive = simulate_from_price(cp(0.7), p0=5.0, horizon=500)
    ratio = explosive.price[500] / explosive.price[499]
    assert abs(ratio - RHO_HIGH) < 1e-8
    assert abs(explosive.rate[499] - RHO_HIGH) < 1e-8
    assert ratio == pytest.approx(1.061379, abs=5e-7)
    assert best_time(
        lambda: (simulate_from_price(cp(0.4), 5.0, 500),
                 simulate_from_price(cp(0.7), 5.0, 500))
    ) < 1e-2


@guarantee(6, "long-run rate sweep matches the piecewise closed forms")
def test_06_longrun_rate_sweep_closed_form():
    scs = {s.name: s for s in load_scenarios(FIGURES)}
    values, stats = run_sweep_values(scs["fig2_longrun_rate"])
    assert len(values) == 200
    assert values[0] == 0.0 and values[-1] == 1.0
    split = 1.0 - BETA + BETA * PI
    for a, rate in zip(values, stats["longrun_rate"]):
        rk = a + 1.0 - DELTA
        if a <= TH_LOW:
            expected = 1.0 / BETA
        elif a >= TH_HIGH:
            expected = BETA * PI * rk / split
        else:
            expected = (1.0 - BETA * PI * rk) / (BETA * (1.0 - PI))
        assert abs(rate - expected) < 1e-12


@guarantee(7, "temporary boom curvature: concave below the cutoff, convex above")
def test_07_temporary_boom_curvature():
    base = cp(0.4)
    moderate = simulate_regime_switch(base, cp(0.5), t_on=1, t_off=11,
                                      horizon=120)
    bubbly = simulate_regime_switch(base, cp(0.7), t_on=1, t_off=11,
                                    horizon=120)
    # second differences of the price over the boom
    assert np.all(np.diff(moderate.price[0:11], n=2) < 0)
    assert np.all(np.diff(bubbly.price[0:11], n=2) > 0)
    for path in (moderate, bubbly):
        gap = np.abs(path.price - FP_PRICE)
        assert np.all(np.diff(gap[11:]) < 0)    # reverting after the boom
        assert gap[120] < 1e-4 * gap[11]
    assert bubbly.price.max() > moderate.price.max()


@guarantee(8, "three bubble detectors agree on 200 random draws")
def test_08_detector_equivalence_on_random_draws():
    rng = np.random.default_rng(20260814)
    lo, hi = thresholds(cp(0.5))
    draws = []
    while len(draws) < 198:
        a = float(rng.uniform(0.0, 1.0))
        # the yield classifier needs a resolvable geometric signal; skip
        # only the hairline band around the cutoff, keep everything else
        if abs(a - hi) < 0.004:
            continue
        draws.append(a)
    draws += [lo, hi]   # exact boundary draws

    counts = {"yield": 0, "value": 0}
    sides = {"fundamental": 0, "bubbly": 0}
    for a in draws:
        p = cp(a)
        truth = "bubbly" if classify_regime(p).has_bubble else "fundamental"
        sides[truth] += 1
        if a <= lo:
            path = steady_path(p, horizon=1200)
        else:
            path = simulate_from_price(p, p0=5.0, horizon=1200)
        yield_verdict = detect_bubble(path).verdict
        value_verdict = fundamental_value(path, truncation=400).verdict
        for key, verdict in (("yield", yield_verdict),
                             ("value", value_verdict)):
            if verdict == "inconclusive":
                continue
            counts[key] += 1
            assert verdict == truth, (
                f"{key} detector said {verdict} at A={a}, regime says {truth}"
            )
    assert len(draws) == 200
    # both regimes drawn, and both detectors conclusive on a solid majority
    assert min(sides.values()) >= 50
    assert counts["yield"] >= 190
    assert counts["value"] >= 100


@guarantee(9, "value decomposition: bubble share above, zero bubble below")
def test_09_value_decomposition_both_regimes():
    bubbly = simulate_timevarying(cp(0.7), w0=30.0, horizon=600).path
    rep = fundamental_value(bubbly, truncation=300)
    assert rep.verdict == "bubbly"
    last = rep.fundamental.size - 1
    assert abs(rep.fundamental[last] - V_LIMIT) <= rep.tail_bound[last] + 1e-9
    assert rep.fundamental[last] == pytest.approx(16.292, abs=5e-4)
    share = rep.bubble_component / bubbly.price[: rep.fundamental.size]
    assert np.all(share[200:] > 0.99)

    stable = simulate_from_price(cp(0.4), p0=5.0, horizon=1200)
    rep = fundamental_value(stable, truncation=400)
    assert rep.verdict == "fundamental"
    m = rep.fundamental.size
    slack = 3.0 * rep.tail_bound + 1e-10 * stable.price[:m]
    assert np.all(np.abs(rep.bubble_component) <= slack)


@guarantee(10, "backward construction satisfies every aggregate identity")
def test_10_backward_construction_identities():
    rng = np.random.default_rng(7)
    horizon = 60
    prephases = []
    for _ in range(50):
        # squared draws bias toward the slow-growth, capital-poor corner,
        # where the construction needs a genuine pre-phase
        a = TH_LOW + 0.01 + (1.0 - TH_LOW - 0.01) * float(rng.uniform()) ** 2
        k0 = 50.0 * float(rng.uniform()) ** 2
        p = cp(a)
        eq = construct_equilibrium(p, k0=k0, horizon=horizon)
        path, j = eq.path, eq.prephase_length
        prephases.append(j)
        assert eq.w_switch >= min_wealth(p)
        rk = capital_return(p)
        # pre-phase: both assets pay the capital return, exactly
        assert np.all(path.rate[: min(j, horizon)] == rk)
        P, W, K = path.price, path.wealth, path.capital
        save = np.abs(K + P - BETA * W) / (BETA * W)
        wealth = np.abs(W[1:] - (rk * K[:-1] + P[1:] + 1.0)) / W[1:]
        goods = np.abs(
            (1.0 - BETA) * W[1:] + K[1:] - (rk * K[:-1] + 1.0)
        ) / (rk * K[:-1] + 1.0)
        arb = np.abs(path.rate[:-1] * P[:-1] - (P[1:] + 1.0)) / P[:-1]
        for resid in (save, wealth, goods, arb):
            assert float(np.max(resid)) <= 1e-10
    # the draws exercise immediate starts and genuine pre-phases
    assert min(prephases) == 0
    assert max(prephases) >= 5


@guarantee(11, "growing rents shift the bubble boundary by the growth factor")
def test_11_growing_rent_boundary():
    boundary = timevarying_threshold(PI, BETA, DELTA, growth=1.02)
    assert abs(boundary - 121 / 190) < 1e-9
    # dropping the growth factor from the first term gives a lower value
    # that the simulated dynamics below contradict (the 0.63 probe)
    dropped = (1.0 - BETA) / (BETA * PI) + 1.02 - 1.0 + DELTA
    assert dropped == pytest.approx(0.626316, abs=5e-7)
    assert dropped < boundary
    g = GeometricSeq(scale=1.0, ratio=1.02)
    verdicts = {}
    for a in (0.61, 0.63, 0.65):
        res = simulate_timevarying(cp(a), w0=40.0, horizon=600, rent=g)
        assert res.violations == ()
        det = detect_bubble(res.path)
        verdicts[a] = (res.bubble, det.series.kind, det.verdict)
    assert verdicts[0.61] == (False, SeriesKind.DIVERGENT, "fundamental")
    assert verdicts[0.65] == (True, SeriesKind.CONVERGENT, "bubbly")
    # 0.63 sits below the G-scaled boundary: still no bubble
    assert verdicts[0.63] == (False, SeriesKind.DIVERGENT, "fundamental")


@guarantee(12, "figure suite produces byte-identical output on repeat runs")
def test_12_figure_suite_byte_determinism(tmp_path):
    scenarios = load_scenarios(FIGURES)
    assert len(scenarios) == 5
    outputs = []
    for sub in ("first", "second"):
        outdir = tmp_path / sub
        outdir.mkdir()
        written = []
        for sc in scenarios:
            written.extend(run_scenario(sc, outdir).files)
        outputs.append(sorted(written))
    names = [[f.name for f in files] for files in outputs]
    assert names[0] == names[1]
    assert len(names[0]) >= 10   # a csv and a summary per scenario
    for a, b in zip(*outputs):
        assert a.read_bytes() == b.read_bytes()
