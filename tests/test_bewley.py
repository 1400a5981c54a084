"""Two-agent endowment-fluctuation model with a growing pure bubble."""

import numpy as np
import pytest

from bubblelab.bewley import (
    BewleyParams,
    bewley_path,
    bewley_price,
    bewley_validate,
    marginal_utility,
)

P_LOG = BewleyParams(beta=0.9, gamma=1.0, growth=1.0, rich_endow=2.0, poor_endow=1.0)


def test_price_level_oracle():
    # m = beta = 0.9, p = (m*a - b) / (1 + m) = 0.8/1.9
    eq = bewley_price(P_LOG)
    assert eq.exists
    assert eq.price_level == pytest.approx(0.8 / 1.9, abs=1e-15)


def test_price_positive_requires_rich_enough_buyer():
    # m*a <= b kills the trade motive
    p = BewleyParams(beta=0.4, gamma=1.0, growth=1.0, rich_endow=2.0, poor_endow=1.0)
    eq = bewley_price(p)
    assert not eq.exists
    assert "endow" in eq.reason or "demand" in eq.reason or len(eq.reason) > 0


def test_existence_needs_discounted_growth_below_one():
    # beta * G^(1-gamma) >= 1 rules the equilibrium out
    p = BewleyParams(beta=0.9, gamma=0.5, growth=1.3, rich_endow=2.0, poor_endow=1.0)
    assert 0.9 * 1.3**0.5 > 1.0
    eq = bewley_price(p)
    assert not eq.exists


def test_path_grows_at_common_rate():
    p = BewleyParams(beta=0.9, gamma=2.0, growth=1.02, rich_endow=2.0, poor_endow=1.0)
    eq = bewley_price(p)
    assert eq.exists
    path = bewley_path(p, horizon=100)
    assert path.price[0] == pytest.approx(eq.price_level)
    ratios = path.price[1:] / path.price[:-1]
    assert ratios == pytest.approx(np.full(100, 1.02), abs=1e-12)
    # price of a zero-dividend asset: return equals growth
    assert path.rate[:-1] == pytest.approx(np.full(100, 1.02), abs=1e-12)
    assert np.all(path.dividend == 0.0)


def test_validate_foc_and_slack():
    checks = bewley_validate(P_LOG, horizon=1000)
    assert checks["max_rich_residual"] <= 1e-12
    assert checks["min_poor_slack"] > 0.0
    assert checks["periods"] == 1000


def test_validate_covers_growth_and_curvature():
    for gamma in (0.5, 1.0, 2.0, 5.0):
        for growth in (1.0, 1.05):
            p = BewleyParams(
                beta=0.9, gamma=gamma, growth=growth, rich_endow=3.0, poor_endow=0.5
            )
            eq = bewley_price(p)
            if not eq.exists:
                continue
            checks = bewley_validate(p, horizon=400)
            assert checks["max_rich_residual"] <= 1e-10
            assert checks["min_poor_slack"] > 0.0


def test_marginal_utility_log_branch():
    assert marginal_utility(2.0, 1.0) == pytest.approx(0.5)
    assert marginal_utility(2.0, 2.0) == pytest.approx(0.25)
    got = marginal_utility(np.array([1.0, 4.0]), 0.5)
    assert got == pytest.approx([1.0, 0.5])


def test_param_validation():
    with pytest.raises(ValueError):
        BewleyParams(beta=0.9, gamma=1.0, growth=1.0, rich_endow=1.0, poor_endow=2.0)
    with pytest.raises(ValueError):
        BewleyParams(beta=1.1, gamma=1.0, growth=1.0, rich_endow=2.0, poor_endow=1.0)
