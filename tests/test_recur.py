"""Affine recurrence closed forms, series classification and the yield test."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bubblelab.recur import (
    MIN_TERMS,
    AffineRecurrence,
    NecessityTriple,
    SeriesKind,
    classify_series,
    classify_series_exact,
    affine_path,
    iterate_affine,
    solve_affine,
    yield_test,
)

# frozen oracles: iterate x <- 0.5 x + 1 three times from 0; arithmetic
# progression; one multiplication by the full-precision slope 1539/1450
SOLVE_CASES = [
    (0.5, 1.0, 0.0, 3, 1.75),
    (1.0, 2.0, 5.0, 10, 25.0),
    (1539 / 1450, 0.0, 5.0, 1, 5.306896551724138),
]


@pytest.mark.parametrize("slope, drift, x0, t, expected", SOLVE_CASES)
def test_solve_affine_oracles(slope, drift, x0, t, expected):
    rec = AffineRecurrence(slope=slope, drift=drift, initial=x0)
    assert solve_affine(rec, t) == pytest.approx(expected, abs=1e-12)


def test_solve_affine_t_zero_returns_initial():
    rec = AffineRecurrence(slope=0.3, drift=2.0, initial=7.5)
    assert solve_affine(rec, 0) == 7.5


def test_solve_affine_rejects_negative_time():
    rec = AffineRecurrence(slope=0.3, drift=2.0, initial=7.5)
    with pytest.raises(ValueError):
        solve_affine(rec, -1)


def test_slope_must_be_nonnegative():
    with pytest.raises(ValueError):
        AffineRecurrence(slope=-0.1, drift=0.0, initial=1.0)


def test_closed_form_matches_iteration_on_random_draws():
    # 1000 draws over slope [0,2], drift [0,10], x0 [0,10]; exact and
    # iterated solutions agree to 1e-12 relative for t up to 1000
    rng = np.random.default_rng(20240817)
    times = np.array([0, 1, 2, 3, 7, 50, 317, 1000])
    for _ in range(1000):
        slope = rng.uniform(0.0, 2.0)
        drift = rng.uniform(0.0, 10.0)
        x0 = rng.uniform(0.0, 10.0)
        rec = AffineRecurrence(slope=slope, drift=drift, initial=x0)
        path = iterate_affine(rec, horizon=1000)
        for t in times:
            exact = solve_affine(rec, int(t))
            tol = 1e-12 * max(1.0, abs(path[t]))
            assert abs(exact - path[t]) <= tol


def test_closed_form_near_unit_slope():
    # the naive geometric-sum formula loses digits as slope -> 1
    for eps in (1e-13, 1e-10, 1e-8, 1e-6):
        rec = AffineRecurrence(slope=1.0 + eps, drift=1.0, initial=0.0)
        path = iterate_affine(rec, horizon=200)
        got = solve_affine(rec, 200)
        assert got == pytest.approx(path[200], rel=1e-11)


def test_unit_slope_is_arithmetic_progression():
    rec = AffineRecurrence(slope=1.0, drift=2.0, initial=5.0)
    path = iterate_affine(rec, horizon=10)
    assert list(path) == [5.0 + 2.0 * t for t in range(11)]


def test_fixed_point():
    rec = AffineRecurrence(slope=0.5, drift=3.0, initial=0.0)
    assert rec.fixed_point == pytest.approx(6.0)
    assert AffineRecurrence(1.0, 3.0, 0.0).fixed_point is None


# --- long-run oracles -----------------------------------------------------

# slope/drift from the land model at A = 0.4 and 0.7 (full precision)
RHO_LOW = 0.095 * 1.32 / 0.145
RHO_HIGH = 1539 / 1450
DRIFT = 0.855 / 0.145


def test_iterate_affine_converges_to_fixed_point():
    rec = AffineRecurrence(RHO_LOW, DRIFT, 5.0)
    assert rec.fixed_point == pytest.approx(4275 / 98, rel=1e-12)
    # oracle: iterate far past the mixing time
    path = iterate_affine(rec, 5000)
    assert path[-1] == pytest.approx(4275 / 98, rel=1e-12)


def test_iterate_affine_grows_at_the_slope():
    # oracle: consecutive ratios approach the slope
    path = iterate_affine(AffineRecurrence(RHO_HIGH, DRIFT, 5.0), 600)
    assert path[600] / path[599] == pytest.approx(RHO_HIGH, abs=1e-10)


def test_monotone_approach_to_fixed_point():
    rng = np.random.default_rng(7)
    for _ in range(50):
        slope = rng.uniform(0.0, 0.999)
        drift = rng.uniform(0.01, 10.0)
        x0 = rng.uniform(0.0, 10.0)
        path = iterate_affine(AffineRecurrence(slope, drift, x0), 200)
        fp = drift / (1.0 - slope)
        gaps = path - fp
        assert np.all(np.sign(gaps[:-1]) * np.sign(gaps[1:]) >= 0)
        # monotone while above the float plateau around the fixed point
        live = np.abs(gaps[:-1]) > 1e-12 * (1.0 + abs(fp))
        assert np.all(np.abs(gaps[1:])[live] <= np.abs(gaps[:-1])[live])


# --- the stepping kernel -----------------------------------------------


def reference_affine_path(slope, drift, initial, horizon):
    """The per-step loop the models ran before the shared kernel."""
    slope = np.broadcast_to(slope, horizon)
    drift = np.broadcast_to(drift, horizon)
    out = np.empty(horizon + 1)
    out[0] = initial
    with np.errstate(over="ignore"):
        for t in range(1, horizon + 1):
            out[t] = slope[t - 1] * out[t - 1] + drift[t - 1]
    return out


_rng = np.random.default_rng(11)
AFFINE_PATH_CASES = {
    "scalar": (0.5, 1.0, 0.0, 3),
    "scalar_explosive": (RHO_HIGH, DRIFT, 5.0, 600),
    "arrays": (_rng.uniform(0.5, 1.5, 40), _rng.uniform(-1.0, 3.0, 40), 2.0, 40),
    "array_drift": (0.3, _rng.uniform(0.0, 1.0, 25), 1.0, 25),
    "horizon_0": (0.5, 1.0, 7.5, 0),
    "overflow": (10.0, 1.0, 1.0, 400),
    # the forms the land-economy builders pass: np.where's 0-d arrays, a
    # constant slope with per-period drifts, and zero-stride views
    "zero_d": (np.where(False, 1.0, RHO_LOW), np.asarray(DRIFT * 2), 3.0, 60),
    "zero_d_slope_array_drift": (np.where(True, 1.0, 0.0), _rng.uniform(0.0, 1.0, 30), 0.5, 30),
    "broadcast_views": (np.broadcast_to(RHO_HIGH, (50,)), np.broadcast_to(DRIFT, (50,)), 5.0, 50),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", AFFINE_PATH_CASES)
def test_affine_path_matches_per_step_loop(case):
    slope, drift, x0, horizon = AFFINE_PATH_CASES[case]
    got = affine_path(slope, drift, x0, horizon)
    assert got.shape == (horizon + 1,)
    assert got.tobytes() == reference_affine_path(slope, drift, x0, horizon).tobytes()


@pytest.mark.filterwarnings("error")
def test_affine_path_overflows_to_inf_without_warning():
    path = affine_path(*AFFINE_PATH_CASES["overflow"])
    assert np.isfinite(path[308]) and np.all(path[309:] == math.inf)


def test_affine_path_rejects_negative_horizon():
    with pytest.raises(ValueError):
        affine_path(0.5, 1.0, 0.0, -1)
    with pytest.raises(ValueError):
        iterate_affine(AffineRecurrence(0.5, 1.0, 0.0), -1)


# --- series classification ---------------------------------------------


def test_series_geometric_convergent():
    t = np.arange(1, 10_001)
    res = classify_series(2.0 ** (1.0 - t))
    assert res.kind is SeriesKind.CONVERGENT


def test_series_harmonic_divergent():
    t = np.arange(1, 10_001)
    res = classify_series(1.0 / t)
    assert res.kind is SeriesKind.DIVERGENT


def test_series_near_boundary_inconclusive():
    t = np.arange(1, 10_001)
    res = classify_series(t ** -1.001)
    assert res.kind is SeriesKind.INCONCLUSIVE


def test_series_growing_terms_divergent():
    t = np.arange(1, 2_001)
    res = classify_series(1.01 ** t)
    assert res.kind is SeriesKind.DIVERGENT


def test_series_all_zero_convergent():
    res = classify_series(np.zeros(500))
    assert res.kind is SeriesKind.CONVERGENT


def test_series_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_series(np.ones(50))  # too short
    bad = np.ones(200)
    bad[3] = -1.0
    with pytest.raises(ValueError):
        classify_series(bad)


def test_series_exact_routes():
    assert classify_series_exact(0.5).kind is SeriesKind.CONVERGENT
    assert classify_series_exact(1.5).kind is SeriesKind.DIVERGENT
    assert classify_series_exact(1.0, power=-2.0).kind is SeriesKind.CONVERGENT
    assert classify_series_exact(1.0, power=-1.0).kind is SeriesKind.DIVERGENT
    assert classify_series_exact(1.0, power=0.0).kind is SeriesKind.DIVERGENT


def test_yield_test_routes():
    # a known tail is decided exactly, without reading the terms
    assert yield_test(None, tail=(1.0, -2.0)) == classify_series_exact(1.0, -2.0)
    assert yield_test(np.ones(5), tail=(0.5, 0.0)).kind is SeriesKind.CONVERGENT
    # otherwise every term given is read, and too few cannot decide
    t = np.arange(1, 1_001)
    assert yield_test(1.0 / t) == classify_series(1.0 / t, horizon=1_000)
    kind, ratio = yield_test(np.ones(MIN_TERMS - 1))
    assert kind is SeriesKind.INCONCLUSIVE and math.isnan(ratio)
    assert yield_test(()).kind is SeriesKind.INCONCLUSIVE


def test_only_the_yield_test_calls_the_series_classifiers():
    """One bubble criterion: within the package, ``classify_series`` and
    ``classify_series_exact`` are called from ``recur.yield_test`` alone."""
    src = Path(__file__).resolve().parent.parent / "src" / "bubblelab"
    callers = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("classify_series", "classify_series_exact"):
                    callers.add(owner)
            visit(child, owner)

    for module in sorted(src.glob("*.py")):
        visit(ast.parse(module.read_text(encoding="utf-8")), module.stem)
    assert callers == {"recur.yield_test"}


def test_limit_and_series_views_agree():
    # constant dividends over the price x_t: the exact verdict on the yield
    # tail (1/slope, 0) is the finite sample's on 1/x_t
    for slope, expected in [
        (RHO_HIGH, SeriesKind.CONVERGENT),
        (RHO_LOW, SeriesKind.DIVERGENT),
    ]:
        path = iterate_affine(AffineRecurrence(slope, DRIFT, 5.0), 4000)
        exact = yield_test((), tail=(1.0 / slope, 0.0))
        assert exact.kind is yield_test(1.0 / path[1:]).kind is expected


def test_series_handles_generators():
    gen = (2.0 ** (1.0 - t) for t in range(1, 5001))
    assert classify_series(gen).kind is SeriesKind.CONVERGENT


def _with(arr: np.ndarray, at: int, value: float) -> np.ndarray:
    arr = arr.copy()
    arr[at] = value
    return arr


_t = np.arange(1, 10_001)
# terms, horizon, and the verdict or the error text
SERIES_FORMS = {
    "horizon_below_length": (2.0 ** (1.0 - _t), 300, SeriesKind.CONVERGENT),
    "harmonic": (1.0 / _t, 10_000, SeriesKind.DIVERGENT),
    "int": (np.arange(1, 501), 10_000, SeriesKind.DIVERGENT),
    "int_zeros": (np.zeros(200, dtype=np.int64), 10_000, SeriesKind.CONVERGENT),
    "float32": ((1.0 / _t).astype(np.float32), 8_000, SeriesKind.DIVERGENT),
    "float32_near_boundary": ((_t ** -1.001).astype(np.float32), 10_000, SeriesKind.INCONCLUSIVE),
    "too_few": (np.ones(MIN_TERMS - 1), 10_000, f"need at least {MIN_TERMS} terms, got 99"),
    "negative": (_with(1.0 / _t, 3, -1.0), 10_000, "terms must be finite and nonnegative"),
    "nan": (_with(1.0 / _t, 500, math.nan), 10_000, "terms must be finite and nonnegative"),
    "two_d": (np.ones((200, 2)), 10_000, "setting an array element with a sequence."),
}


def _series_outcome(terms, horizon):
    """The verdict with its tail ratio's bits, or the ValueError's text."""
    try:
        kind, ratio = classify_series(terms, horizon)
    except ValueError as e:
        return str(e)
    return kind, np.float64(ratio).tobytes()


@pytest.mark.parametrize("case", SERIES_FORMS)
def test_series_reads_arrays_lists_and_generators_alike(case):
    terms, horizon, expected = SERIES_FORMS[case]
    got = _series_outcome(terms, horizon)
    assert got == _series_outcome(terms.tolist(), horizon)
    assert got == _series_outcome((v for v in terms), horizon)
    assert (got[0] if isinstance(expected, SeriesKind) else got) == expected


def test_solve_affine_is_finite_for_large_t():
    rec = AffineRecurrence(0.9, 1.0, 2.0)
    assert math.isfinite(solve_affine(rec, 10**6))
    assert solve_affine(rec, 10**6) == pytest.approx(10.0)


# (fundamental rate R, dividend growth G_d, economy growth G): the Bubble
# Necessity Theorem's condition R < G_d < G is strict in both places
NECESSITY_CASES = [
    pytest.param(0.4 / 1.8, 1.02, 1.05, True, id="holds"),
    pytest.param(0.4 / 1.8, 1.05, 1.05, False, id="gd_equals_g"),
    pytest.param(0.4 / 1.8, 1.05, 1.02, False, id="gd_above_g"),
    pytest.param(18.0, 1.2, 1.5, False, id="r_above_gd"),
]


@pytest.mark.parametrize("rate, g_d, g, holds", NECESSITY_CASES)
def test_necessity_ordering(rate, g_d, g, holds):
    assert NecessityTriple(rate, g_d, g).holds is holds
