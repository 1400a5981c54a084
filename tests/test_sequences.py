"""Sequence primitives and the shared path container."""

import numpy as np
import pytest

from bubblelab.paths import EquilibriumPath, gross_rates
from bubblelab.sequences import (
    ExplicitSeq,
    GeometricSeq,
    PolynomialSeq,
    always_positive,
    constant,
    tail_asymptotics,
)


def test_geometric_values():
    g = GeometricSeq(scale=2.0, ratio=1.5)
    assert g.value(0) == 2.0
    assert g.value(3) == pytest.approx(2.0 * 1.5**3)
    assert list(g.values(4)) == pytest.approx([2.0, 3.0, 4.5, 6.75])


def test_polynomial_values():
    p = PolynomialSeq(scale=3.0, power=-2.0)
    # evaluates scale * (1+t)**power so negative powers stay finite at t=0
    assert p.value(0) == 3.0
    assert p.value(1) == pytest.approx(0.75)
    assert list(p.values(2)) == pytest.approx([3.0, 0.75])


def test_explicit_bounds():
    e = ExplicitSeq((1.0, 2.0, 3.0))
    assert e.value(2) == 3.0
    with pytest.raises(ValueError):
        e.value(3)
    with pytest.raises(ValueError):
        ExplicitSeq(())


def test_constant_is_unit_ratio_geometric():
    c = constant(4.0)
    assert isinstance(c, GeometricSeq)
    assert c.ratio == 1.0
    assert list(c.values(3)) == [4.0, 4.0, 4.0]
    # zero level is allowed (used for absent productivity)
    z = constant(0.0)
    assert z.value(5) == 0.0


def test_always_positive():
    assert always_positive(GeometricSeq(1.0, 0.5))
    assert not always_positive(GeometricSeq(0.0, 0.5))
    assert always_positive(ExplicitSeq((1.0, 2.0)))
    assert not always_positive(ExplicitSeq((1.0, 0.0)))


def test_tail_asymptotics():
    assert tail_asymptotics(GeometricSeq(2.0, 1.5)) == (1.5, 0.0)
    assert tail_asymptotics(PolynomialSeq(1.0, -2.0)) == (1.0, -2.0)
    assert tail_asymptotics(ExplicitSeq((1.0, 2.0))) is None
    # a zero scale is identically zero, whatever its ratio or power
    assert tail_asymptotics(GeometricSeq(0.0, 1.5)) == (0.0, 0.0)
    assert tail_asymptotics(PolynomialSeq(0.0, 2.0)) == (0.0, 0.0)


# --- path container ------------------------------------------------------


def test_gross_rates_definition():
    price = np.array([1.0, 2.0, 4.0])
    dividend = np.array([0.5, 0.5, 0.5])
    r = gross_rates(price, dividend)
    assert r[0] == pytest.approx(2.5)
    assert r[1] == pytest.approx(2.25)
    assert np.isnan(r[2])


def test_gross_rates_zero_price_is_nan():
    price = np.array([1.0, 0.0, 0.0])
    dividend = np.zeros(3)
    r = gross_rates(price, dividend)
    assert r[0] == 0.0          # collapse step: (0+0)/1
    assert np.isnan(r[1])       # 0/0 afterwards
    assert np.isnan(r[2])


def test_path_validation_and_views():
    price = np.array([4.0, 2.0, 1.0])
    dividend = np.array([1.0, 1.0, 1.0])
    path = EquilibriumPath(
        price=price, dividend=dividend, rate=gross_rates(price, dividend)
    )
    assert len(path) == 3
    assert path.price_rent() == pytest.approx([4.0, 2.0, 1.0])
    assert path.dividend_yield() == pytest.approx([0.25, 0.5, 1.0])
    with pytest.raises(ValueError):
        EquilibriumPath(
            price=price, dividend=dividend[:2], rate=path.rate
        )


def test_path_optional_blocks_must_match_length():
    price = np.ones(4)
    dividend = np.zeros(4)
    rate = gross_rates(price, dividend)
    ok = EquilibriumPath(
        price=price,
        dividend=dividend,
        rate=rate,
        wealth=np.ones(4),
        capital=np.ones(4),
        phi=np.full(4, 0.5),
    )
    assert ok.wealth is not None
    with pytest.raises(ValueError):
        EquilibriumPath(
            price=price, dividend=dividend, rate=rate, wealth=np.ones(3)
        )
