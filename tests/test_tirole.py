"""Capital OLG steady states: crowd-out baseline and crowd-in variant."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bubblelab.tirole import (
    TiroleParams,
    _pow,
    capital_rate,
    crossover_pi,
    savings_identity_residual,
    tirole_crowdin_steady,
    tirole_steady,
    wage,
)

P = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0)

# frozen closed forms for the parameters above
K_FUND = (0.95 * 1.0 * (2 / 3)) ** 1.5
R_FUND = (1 / 0.95) * 0.5 + 0.4
K_BUBBLE = ((1 / 3) / 0.6) ** 1.5
MARGIN = 0.95 * 0.6 * 2.0  # beta*delta*(1-alpha)/alpha
BUBBLE_PRICE = K_BUBBLE * (MARGIN - 1.0)


def crossover_error(p: TiroleParams) -> float:
    """|crossover_pi(p) / pi* - 1| over ((4 + |ln margin|)/alpha + 1) * 2**-53,
    with pi* = margin^(-1/alpha) to 60 digits from the exact binary inputs.

    The bound: margin = beta*delta*(1-alpha)/alpha rounds at most four times
    and -1/alpha once; the power amplifies the first by 1/alpha and the
    second by |ln margin|/alpha, and rounds once itself.
    """
    with mpmath.workdps(60):
        beta, alpha, delta = map(mpmath.mpf, (p.beta, p.alpha, p.delta))
        margin = beta * delta * (1 - alpha) / alpha
        exact = margin ** (-1 / alpha)
        err = float(abs(mpmath.mpf(crossover_pi(p)) / exact - 1))
    return err / (((4.0 + abs(float(mpmath.log(margin)))) / p.alpha + 1.0) * 2.0**-53)


def test_fundamental_steady_state():
    ss = tirole_steady(P)
    assert ss.k_fundamental == pytest.approx(K_FUND, rel=1e-14)
    assert ss.r_fundamental == pytest.approx(R_FUND, rel=1e-14)
    # 6-digit display anchors
    assert ss.k_fundamental == pytest.approx(0.504021, abs=1e-5)
    assert ss.r_fundamental == pytest.approx(0.926316, abs=1e-5)
    assert ss.r_fundamental < 1.0


def test_bubbly_steady_state():
    ss = tirole_steady(P)
    assert ss.bubbly is not None
    assert ss.bubbly.capital == pytest.approx(K_BUBBLE, rel=1e-14)
    assert ss.bubbly.price == pytest.approx(BUBBLE_PRICE, rel=1e-12)
    assert ss.bubbly.capital == pytest.approx(0.414087, abs=1e-5)
    assert ss.bubbly.rate == 1.0
    assert ss.crowding == "out"
    assert ss.bubbly.capital < ss.k_fundamental


def test_savings_identity():
    # K_b + P = beta * wage(K_b), wage = (1-alpha) A K^alpha
    assert abs(savings_identity_residual(P)) < 1e-12
    ss = tirole_steady(P)
    lhs = ss.bubbly.capital + ss.bubbly.price
    rhs = 0.95 * (2 / 3) * ss.bubbly.capital ** (1 / 3)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_fundamental_savings_absorb_all_wages():
    # without a bubble all savings go to capital: K_f = beta * wage(K_f)
    ss = tirole_steady(P)
    assert ss.k_fundamental == pytest.approx(
        0.95 * wage(P, ss.k_fundamental), rel=1e-12
    )


def test_rate_consistency():
    # fundamental rate equals the capital return at K_f
    ss = tirole_steady(P)
    assert capital_rate(P, ss.k_fundamental) == pytest.approx(
        ss.r_fundamental, rel=1e-12
    )


def test_no_bubble_when_margin_below_one():
    patient = TiroleParams(beta=0.95, alpha=0.6, delta=0.6, tfp=1.0)
    # beta*delta*(1-alpha)/alpha = 0.38 < 1
    ss = tirole_steady(patient)
    assert ss.bubbly is None
    assert ss.crowding is None
    with pytest.raises(ValueError):
        crossover_pi(patient)


def test_crowdin_steady_state():
    p = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0, entrepreneur_prob=0.05)
    ss = tirole_crowdin_steady(p)
    k_expected = (0.95 * (2 / 3) * 0.05 ** (1 / 3)) ** 1.5
    assert ss.k_fundamental == pytest.approx(k_expected, rel=1e-14)
    assert ss.k_fundamental == pytest.approx(0.112702, abs=1e-5)
    assert ss.bubbly is not None
    assert ss.bubbly.capital > ss.k_fundamental
    assert ss.crowding == "in"


def test_crowdin_rate_formula():
    p = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0, entrepreneur_prob=0.05)
    ss = tirole_crowdin_steady(p)
    expected = (1 / 3) / (0.95 * 0.05 * (2 / 3)) + 1.0 - 0.6
    assert ss.r_fundamental == pytest.approx(expected, rel=1e-14)
    # the rate at full participation matches the baseline model
    full = tirole_crowdin_steady(TiroleParams(0.95, 1 / 3, 0.6, 1.0, 1.0))
    assert full.r_fundamental == pytest.approx(R_FUND, rel=1e-14)
    assert full.k_fundamental == pytest.approx(K_FUND, rel=1e-14)


def test_crossover_matches_closed_form():
    # K_f(pi) = K_b has the closed form pi* = [alpha/(beta delta (1-alpha))]^(1/alpha)
    got = crossover_pi(P)
    assert crossover_error(P) <= 1.0
    # capital stocks actually cross there
    lo = tirole_crowdin_steady(
        TiroleParams(0.95, 1 / 3, 0.6, 1.0, entrepreneur_prob=got * 0.9)
    )
    hi = tirole_crowdin_steady(
        TiroleParams(0.95, 1 / 3, 0.6, 1.0, entrepreneur_prob=min(1.0, got * 1.1))
    )
    assert lo.crowding == "in"
    assert hi.crowding == "out"


@st.composite
def bubbly_capital_economies(draw):
    """A Tirole economy with a bubbly steady state. Its margin is below
    0.99 * 0.98 / 0.02 = 48.51 and alpha at least 0.02, so its crossover,
    margin^(-1/alpha), exceeds 48.51^-50 > 1e-85: a normal double. Neither
    tfp nor pi enters the crossover."""
    p = TiroleParams(
        beta=draw(st.floats(0.5, 0.99)),
        alpha=draw(st.floats(0.02, 0.6)),
        delta=draw(st.floats(0.05, 1.0)),
        tfp=1.0,
    )
    assume(p.beta * p.delta * (1.0 - p.alpha) / p.alpha > 1.0)
    return p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bubbly_capital_economies())
def test_crossover_on_random_draws(p):
    assert crossover_error(p) <= 1.0


def test_crossover_far_below_one_millionth():
    # a bubbly economy that crowds capital out, with pi* = 5.13^-10 = 7.9e-08
    p = TiroleParams(beta=0.95, alpha=0.1, delta=0.6, tfp=1.0, entrepreneur_prob=0.5)
    assert tirole_crowdin_steady(p).crowding == "out"
    assert crossover_error(p) <= 1.0
    assert crossover_pi(p) == pytest.approx(5.13**-10, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.005, 0.0063])
def test_crossover_below_the_normal_doubles_raises(alpha):
    # margin^(-1/alpha) is 0.0 at alpha 0.005 and 7.5e-311, a subnormal
    # whose printed digits would be wrong, at alpha 0.0063
    p = TiroleParams(beta=0.95, alpha=alpha, delta=0.6, tfp=1.0, entrepreneur_prob=0.5)
    with pytest.raises(ValueError, match="is below the normal doubles"):
        crossover_pi(p)


def test_requires_full_participation_for_baseline():
    p = TiroleParams(beta=0.95, alpha=1 / 3, delta=0.6, tfp=1.0, entrepreneur_prob=0.5)
    with pytest.raises(ValueError):
        tirole_steady(p)


POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)
EXPONENT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(POSITIVE, EXPONENT), min_size=1, max_size=40))
def test_array_powers_equal_python_pow_bit_for_bit(pairs):
    """The grid's powers are Python's float ** on every positive finite
    base; where ** raises OverflowError the array holds inf."""
    x, y = (np.array(v) for v in zip(*pairs))

    def python_pow(a: float, b: float) -> float:
        try:
            return a**b
        except OverflowError:
            return float("inf")

    want = np.array([python_pow(a, b) for a, b in pairs])
    with np.errstate(over="ignore"):
        got = _pow(x, y)
    assert got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_a_scalar_power_that_overflows_raises_as_python_pow_does():
    # the scalar functions keep Python's **, and its error
    p = TiroleParams(beta=0.95, alpha=0.3, delta=0.1, tfp=1e250)
    with pytest.raises(OverflowError, match=r"^\(34, 'Numerical result out of range'\)$"):
        tirole_steady(p)
