"""Property tests: the no-arbitrage and truncation identities hold on random
barebones equilibria, whichever way they were built and whatever the
window length."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import (  # noqa: E402
    BareBonesParams,
    construct_equilibrium,
    no_arbitrage_residuals,
    simulate_from_price,
    simulate_regime_switch,
    threshold_values,
    truncation_identity_residuals,
)

RESIDUAL_TOL = 1e-9


@st.composite
def barebones_equilibria(draw):
    """A barebones equilibrium path from one of the three constructions, with
    productivity from just above the lower threshold to twice the upper one
    (balanced and bubbly regimes alike). Right at the lower threshold the
    construction's feasibility window closes, so draws keep 1% of the
    range away from it."""
    pi = draw(st.floats(0.05, 0.95))
    beta = draw(st.floats(0.5, 0.99))
    delta = draw(st.floats(0.02, 1.0))
    low, high = threshold_values(pi, beta, delta)
    p = BareBonesParams(
        pi=pi,
        beta=beta,
        delta=delta,
        productivity=low + draw(st.floats(0.01, 1.0)) * (2.0 * high - low),
        rent=draw(st.floats(0.1, 5.0)),
    )
    horizon = draw(st.integers(2, 3000))
    kind = draw(st.sampled_from(["from_price", "construct", "regime_switch"]))
    if kind == "from_price":
        return simulate_from_price(p, draw(st.floats(0.01, 100.0)), horizon)
    if kind == "construct":
        return construct_equilibrium(p, draw(st.floats(0.0, 100.0)), horizon).path
    base = dataclasses.replace(
        p,
        productivity=low + draw(st.floats(0.01, 0.99)) * (high - low),
    )
    t_on = draw(st.integers(0, horizon + 1))
    t_off = draw(st.integers(t_on, horizon + 1))
    return simulate_regime_switch(base, p, t_on, t_off, horizon)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(path=barebones_equilibria(), data=st.data())
def test_identities_hold_on_random_equilibria(path, data):
    # an unbalanced bubbly path grows geometrically and can leave the
    # doubles within the horizon; only representable paths are equilibria here
    assume(np.all(np.isfinite(path.price)))
    n = path.price.size
    T = data.draw(st.integers(1, n - 1), label="truncation")
    assert np.max(no_arbitrage_residuals(path)) <= RESIDUAL_TOL
    residuals = truncation_identity_residuals(path, T)
    assert residuals.size == n - T
    assert np.max(residuals) <= RESIDUAL_TOL
