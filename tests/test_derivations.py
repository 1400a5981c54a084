"""The land economy's closed forms, derived with sympy from its equations and
checked against the library.

Under full investment (phi = pi), period t's wealth accounting, consumption
and budget

    W_t = (A+1-delta) K_t + (P_t + D) X,   C_t = (1-beta) W_t,
    K_{t+1} + P_t X = beta W_t,            K_{t+1} = beta pi W_t,

with K_t = beta pi W_{t-1} and P_{t-1} X = beta (1-pi) W_{t-1} from period
t-1, give the price map P_t = rho P_{t-1} + gamma. Its fixed point prices
land at the balanced rate (P + D) / P. Land alone (K = 0, P X = beta W)
earns 1/beta. The upper cutoff is where rho = 1; the lower one is where
capital's return A + 1 - delta equals the land-only rate. Land bought at
wealth W returns R(W) = (P_{t+1} + D) / P_t on the price map; the wealth
floor is where R(W) meets capital's return.

Tirole's capital economy has the gross return R(K) = A alpha K^(alpha-1)
+ 1 - delta and the wage w(K) = A (1-alpha) K^alpha. The bubble earns 1, so
R(K_b) = 1 pins its capital, and it absorbs the saving left over:
P_b = beta w(K_b) - K_b. Without it every young agent saves into capital,
K_f = beta w(K_f), earning r_f = R(K_f). With a share pi of entrepreneurs
the documented K_f(pi) = (beta A (1-alpha) pi^alpha)^(1/(1-alpha)) meets K_b
at the crowding crossover pi*.
"""

import dataclasses
import functools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import BareBonesParams, balanced_rate, min_wealth  # noqa: E402
from bubblelab import price_slope, simulate_timevarying, thresholds  # noqa: E402
from bubblelab import tirole  # noqa: E402

beta, pi, delta, A, D, X = sympy.symbols("beta pi delta A D X", positive=True)
P_prev, P, W, C, K_next = sympy.symbols("P_prev P W C K_next", positive=True)
R_K = A + 1 - delta
U = Fraction(1, 2**53)   # the unit roundoff of a double

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@functools.cache
def derived() -> SimpleNamespace:
    w_prev = P_prev * X / (beta * (1 - pi))
    period = [
        sympy.Eq(W, R_K * beta * pi * w_prev + (P + D) * X),
        sympy.Eq(C, (1 - beta) * W),
        sympy.Eq(K_next + P * X, beta * W),
        sympy.Eq(K_next, beta * pi * W),
    ]
    price = sympy.solve(period, [W, C, K_next, P], dict=True)[0][P]
    rho = sympy.simplify(sympy.diff(price, P_prev))
    gamma = sympy.simplify(price - rho * P_prev)
    fixed = gamma / (1 - rho)
    land_price = sympy.solve(sympy.Eq(P * X, beta * (P + D) * X), P)[0]
    land_rate = sympy.simplify((land_price + D) / land_price)
    return SimpleNamespace(
        rho=rho,
        gamma=gamma,
        balanced=sympy.simplify((fixed + D) / fixed),
        land_rate=land_rate,
        low=sympy.solve(sympy.Eq(R_K, land_rate), A)[0],
        high=sympy.solve(sympy.Eq(rho, 1), A)[0],
    )


def same(expr, want) -> bool:
    return sympy.simplify(expr - want) == 0


def test_the_price_map_is_the_documented_one():
    d = derived()
    assert same(d.rho, beta * pi * R_K / (1 - beta + beta * pi))
    assert same(d.gamma, beta * (1 - pi) * D / (1 - beta + beta * pi))
    assert X not in (d.rho.free_symbols | d.gamma.free_symbols)


def test_the_closed_forms_are_the_documented_ones():
    d = derived()
    assert same(d.balanced, (1 - beta * pi * R_K) / (beta * (1 - pi)))
    assert same(d.land_rate, 1 / beta)
    assert same(d.low, (1 - beta) / beta + delta)
    assert same(d.high, (1 - beta) / (beta * pi) + delta)


def test_the_wealth_floor_is_where_land_stops_outrunning_capital():
    d = derived()
    w = sympy.Symbol("w", positive=True)
    price = beta * (1 - pi) * w / X
    land_return = (d.rho * price + d.gamma + D) / price
    split = 1 - beta + beta * pi
    assert same(land_return, d.rho + D * X / (split * beta * (1 - pi) * w))
    # R falls in W (beta and pi in (0, 1) written as 1/(1+v) and 1/(1+u)),
    # so a start at the floor keeps land's return at or below capital's
    u, v = sympy.symbols("u v", positive=True)
    slope = sympy.diff(land_return, w).subs({beta: 1 / (1 + v), pi: 1 / (1 + u)})
    assert sympy.simplify(slope).is_negative
    (floor,) = sympy.solve(sympy.Eq(land_return, R_K), w)
    p = SimpleNamespace(
        beta=beta, pi=pi, delta=delta, productivity=A, rent=D, land_supply=X
    )
    assert same(sympy.nsimplify(min_wealth(p), rational=True), floor)


def test_the_long_run_rate_is_continuous_at_both_cutoffs():
    # longrun_rate takes the steady state's rate where one exists and rho
    # where none does: at the upper cutoff rho and the balanced rate are both
    # 1, and at the lower one the balanced rate meets the land-only 1/beta
    d = derived()
    assert same(d.rho.subs(A, d.high), 1)
    assert same(d.balanced.subs(A, d.high), 1)
    assert same(d.balanced.subs(A, d.low), d.land_rate)


# --- the library against the derived expressions, exactly ---------------------


def exact(expr, **values: float) -> Fraction:
    """expr at the doubles given, evaluated in exact rationals."""
    at = {sympy.Symbol(k, positive=True): sympy.Rational(v) for k, v in values.items()}
    r = expr.xreplace(at)
    return Fraction(int(r.p), int(r.q))


def ulps(got: float, want: Fraction) -> Fraction:
    """|got - want| in units of the last place of the double nearest want."""
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


@st.composite
def calibrations(draw, above: float = 0.0):
    """A calibration whose productivity lies between the lower cutoff and
    twice the upper one, at least the share ``above`` of that range above
    the cutoff."""
    pi_ = draw(st.floats(0.02, 0.98))
    beta_ = draw(st.floats(0.5, 0.99))
    delta_ = draw(st.floats(0.01, 1.0))
    low, high = thresholds(SimpleNamespace(pi=pi_, beta=beta_, delta=delta_))
    a = low + draw(st.floats(above, 1.0)) * (2.0 * high - low)
    return BareBonesParams(pi_, beta_, delta_, a, rent=1.0)


@PROPERTY
@given(calibrations())
def test_the_library_is_within_a_few_roundings_of_the_derived_forms(p):
    d = derived()
    at = dict(pi=p.pi, beta=p.beta, delta=p.delta, A=p.productivity)
    th = thresholds(p)
    # 1 - beta is exact for beta >= 1/2, and every other step rounds once
    # on positive operands: two roundings in low, three in high
    assert ulps(th.low, exact(d.low, **at)) <= 2
    assert ulps(th.high, exact(d.high, **at)) <= 3
    # seven roundings; with A at or above the lower cutoff,
    # A + 1 - delta >= 1/beta > 1 cancels nothing
    assert ulps(price_slope(p), exact(d.rho, **at)) <= 8
    # 1 - m, m = beta pi (A+1-delta), may cancel down to 0, so this bound is
    # absolute: each of about five roundings costs at most u (m + |1 - m|)
    # over beta (1 - pi)
    m = exact(beta * pi * R_K, **at)
    scale = U * (m + abs(1 - m)) / (Fraction(p.beta) * (1 - Fraction(p.pi)))
    assert abs(Fraction(balanced_rate(p)) - exact(d.balanced, **at)) <= 6 * scale


@PROPERTY
@given(
    calibrations(above=0.01),
    st.floats(0.1, 5.0),
    st.floats(0.1, 5.0),
    st.integers(1, 200),
)
def test_full_investment_is_feasible_from_the_wealth_floor_up(p, rent, land, h):
    # land's return at the floor is capital's, and 1e-9 of the floor moves it
    # by (1 - beta) / (1 - beta + beta pi) * 1e-9 of capital's return, at
    # least 1e-11: well outside the violation test's 1e-12 slack
    p = dataclasses.replace(p, rent=rent, land_supply=land)
    floor = min_wealth(p)
    above = simulate_timevarying(p, floor * (1 + 1e-9), h, require_feasible=False)
    assert above.violations == ()
    below = simulate_timevarying(p, floor * (1 - 1e-9), h, require_feasible=False)
    assert below.violations[:1] == (0,)


# --- Tirole's steady states and crowding crossover ----------------------------

alpha, K, s = sympy.symbols("alpha K s", positive=True)
R_capital = A * alpha * K ** (alpha - 1) + 1 - delta
wage = A * (1 - alpha) * K**alpha


def same_for_a_capital_share(expr, want) -> bool:
    """expr == want for every alpha in (0, 1), written as 1/(1+s) with
    s > 0: sympy knows only that alpha is positive, and with alpha < 1 as
    well every base in these forms is positive, so powers may be split and
    merged."""
    ratio = (expr / want).subs(alpha, 1 / (1 + s))
    ratio = sympy.powsimp(sympy.expand_power_base(ratio, force=True), force=True)
    return sympy.simplify(sympy.powdenest(ratio, force=True)) == 1


def library(formula, *args, participation=pi):
    """The library's formula, evaluated on symbols, its float constants made
    rational."""
    p = SimpleNamespace(
        beta=beta, alpha=alpha, delta=delta, tfp=A, entrepreneur_prob=participation
    )
    return sympy.nsimplify(formula(p, *args), rational=True)


def test_tiroles_primitives_are_the_librarys():
    assert same(library(tirole.capital_rate, K), R_capital)
    assert same(library(tirole.wage, K), wage)


def test_tiroles_closed_forms_are_the_librarys():
    (k_b,) = sympy.solve(sympy.Eq(R_capital, 1), K)
    assert same_for_a_capital_share(library(tirole._bubbly_capital), k_b)
    price = beta * wage.subs(K, k_b) - k_b
    lib_price = library(lambda p: tirole._bubble_price(p, tirole._bubbly_capital(p)))
    assert same_for_a_capital_share(lib_price, price)

    (k_f,) = sympy.solve(sympy.Eq(K, beta * wage), K)
    assert same_for_a_capital_share(
        library(tirole._fundamental_capital, participation=1), k_f
    )
    assert same_for_a_capital_share(
        library(tirole._fundamental_rate, participation=1), R_capital.subs(K, k_f)
    )

    k_f_of_pi = (beta * A * (1 - alpha) * pi**alpha) ** (1 / (1 - alpha))
    assert same(library(tirole._fundamental_capital), k_f_of_pi)
    (crossover,) = sympy.solve(sympy.Eq(k_f_of_pi, k_b), pi)
    # crossover_pi is margin^(-1/alpha) behind guards that symbols cannot
    # pass; test_tirole runs it at drawn doubles
    margin = library(tirole._bubble_margin)
    assert same_for_a_capital_share(margin ** (-1 / alpha), crossover)

