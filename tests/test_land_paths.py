"""The land economy's three full-investment path builders agree bit for bit.

``simulate_timevarying``, ``construct_equilibrium`` (after its switch) and
``simulate_regime_switch`` step the same wealth recurrence, so wherever
their inputs coincide their paths must be equal array for array, including
at the bubble threshold, where a slope within the unit tolerance of 1 steps
as exactly 1. The reference is ``simulate_timevarying`` at constant
parameters, which steps per-period coefficient arrays; the construction's
tail steps scalar coefficients."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import (  # noqa: E402
    BareBonesParams,
    RegimeKind,
    classify_regime,
    constant,
    construct_equilibrium,
    simulate_regime_switch,
    simulate_timevarying,
    steady_state,
    thresholds,
)
from bubblelab.cli import main  # noqa: E402

FIELDS = ("price", "dividend", "rate", "wealth", "capital", "phi")
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def simulate_forward(p: BareBonesParams, w0: float, h: int):
    """The reference: the constant-parameter full-investment path."""
    return simulate_timevarying(p, w0, h, require_feasible=False).path


def assert_same_path(got, want, start: int = 0) -> None:
    for name in FIELDS:
        a, b = getattr(got, name)[start:], getattr(want, name)
        assert np.array_equal(a, b, equal_nan=True), name


@st.composite
def full_investment_params(draw):
    """Parameters above the lower threshold (keeping 1% of the range away
    from it, where the construction's feasibility window closes). Half the
    draws put productivity at the upper threshold or one of its three
    neighbouring doubles on either side, where the price-map slope is 1
    within the unit tolerance."""
    pi = draw(st.floats(0.05, 0.95))
    beta = draw(st.floats(0.5, 0.99))
    delta = draw(st.floats(0.02, 1.0))
    low, high = thresholds(SimpleNamespace(pi=pi, beta=beta, delta=delta))
    if draw(st.booleans()):
        a = high
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            a = math.nextafter(a, math.copysign(math.inf, steps))
    else:
        a = low + draw(st.floats(0.01, 1.0)) * (2.0 * high - low)
    return BareBonesParams(
        pi=pi, beta=beta, delta=delta, productivity=a, rent=draw(st.floats(0.1, 5.0))
    )


@PROPERTY
@given(p=full_investment_params(), w0=st.floats(0.01, 200.0), h=st.integers(1, 600))
def test_timevarying_with_constant_sequences_is_simulate_forward(p, w0, h):
    res = simulate_timevarying(
        p, w0, h, constant(p.productivity), constant(p.rent), require_feasible=False
    )
    assert_same_path(res.path, simulate_forward(p, w0, h))


@PROPERTY
@given(shock=full_investment_params(), data=st.data())
def test_regime_switch_window_is_simulate_forward(shock, data):
    low, high = thresholds(shock)
    base = BareBonesParams(
        pi=shock.pi,
        beta=shock.beta,
        delta=shock.delta,
        productivity=low + data.draw(st.floats(0.01, 0.99)) * (high - low),
        rent=data.draw(st.floats(0.1, 5.0)),
    )
    h = data.draw(st.integers(1, 600))
    w_base = steady_state(base).wealth
    whole = simulate_regime_switch(base, shock, 0, h + 1, h)
    assert_same_path(whole, simulate_forward(shock, w_base, h))
    t = data.draw(st.integers(0, h + 1))
    empty = simulate_regime_switch(base, shock, t, t, h)
    assert_same_path(empty, simulate_forward(base, w_base, h))


@PROPERTY
@given(p=full_investment_params(), k0=st.floats(0.0, 100.0), h=st.integers(1, 600))
@example(  # the switch falls on the horizon
    p=BareBonesParams(pi=0.125, beta=0.5, delta=1.0, productivity=2.5, rent=1.0),
    k0=0.0,
    h=1,
)
def test_construct_after_switch_is_simulate_forward(p, k0, h):
    built = construct_equilibrium(p, k0, h)
    j = built.prephase_length
    if j < h:
        tail = simulate_forward(p, built.w_switch, h - j)
        assert_same_path(built.path, tail, start=j)
    elif j == h:
        # a one-point tail: no builder steps horizon 0
        assert built.path.wealth[h] == built.w_switch


def test_timevarying_boundary_matches_barebones_csv(tmp_path):
    """At rho = 1.0000000000000002 the time-varying run steps the snapped
    unit slope too: its CSV equals the barebones run's byte for byte."""
    land = "pi = 0.05\nbeta = 0.8\ndelta = 0.05\nw0 = 50\nhorizon = 20000\n"
    ini = tmp_path / "boundary.ini"
    ini.write_text(
        "[fixed]\nmodel = barebones\nproductivity = 5.049999999999999\n"
        f"rent = 1.0\n{land}\n"
        "[varying]\nmodel = barebones_timevarying\n"
        "productivity = constant(5.049999999999999)\n"
        f"rent = constant(1.0)\n{land}"
    )
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out-dir", str(out)]) == 0
    assert (out / "varying.csv").read_bytes() == (out / "fixed.csv").read_bytes()


def test_timevarying_verdict_at_the_unit_slope_boundary():
    """rho = 1.0000000000000002 is the boundary regime, not a bubble: the
    time-varying verdict draws the line where ``classify_regime`` does."""
    p = BareBonesParams(
        pi=0.05, beta=0.8, delta=0.05, productivity=5.049999999999999, rent=1.0
    )
    assert classify_regime(p).kind is RegimeKind.BOUNDARY_NO_BUBBLE
    res = simulate_timevarying(p, 50.0, 20000, constant(p.productivity), constant(1.0))
    assert res.slope_ratio.min() > 1.0
    assert res.bubble is False


@PROPERTY
@given(p=full_investment_params(), w0=st.floats(0.01, 200.0), h=st.integers(1, 600))
def test_timevarying_verdict_with_constant_sequences_is_the_regime(p, w0, h):
    res = simulate_timevarying(
        p, w0, h, constant(p.productivity), constant(p.rent), require_feasible=False
    )
    assert res.bubble == classify_regime(p).has_bubble
