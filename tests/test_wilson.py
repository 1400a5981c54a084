"""Dividend-paying OLG: price proportional to endowment, bubble iff the
dividend-to-endowment series converges."""

import numpy as np
import pytest

from bubblelab import (
    ExplicitSeq,
    GeometricSeq,
    PolynomialSeq,
    SeriesKind,
    WilsonParams,
    constant,
    wilson_bubble_test,
    wilson_path,
)


def _growing(beta=0.6, endow_growth=1.05, div_growth=1.02):
    return WilsonParams(
        beta=beta,
        young_endow=GeometricSeq(scale=1.0, ratio=endow_growth),
        dividend=GeometricSeq(scale=0.1, ratio=div_growth),
    )


def test_price_is_endowment_share():
    p = _growing()
    path = wilson_path(p, horizon=40)
    endow = p.young_endow.values(41)
    assert np.allclose(path.price, 0.6 * endow, rtol=1e-14)
    # positive dividends push the realized rate above pure price growth
    assert np.all(path.rate[:-1] > 1.05)
    assert np.isnan(path.rate[-1])


def test_rates_match_definition():
    p = _growing()
    path = wilson_path(p, horizon=25)
    manual = (path.price[1:] + path.dividend[1:]) / path.price[:-1]
    assert np.allclose(path.rate[:-1], manual, rtol=1e-14)


def test_constant_economy_has_no_bubble():
    # constant endowment, constant positive dividend: sum D/a diverges
    p = WilsonParams(beta=0.5, young_endow=constant(2.0), dividend=constant(0.3))
    assert wilson_bubble_test(p).kind is SeriesKind.DIVERGENT
    path = wilson_path(p, horizon=10)
    assert np.allclose(path.price[:-1], 1.0)
    # gross rate (P + D)/P = 1.3 every period
    assert np.allclose(path.rate[:-1], 1.3, rtol=1e-14)


def test_slower_dividend_growth_gives_bubble():
    # endowments outgrow dividends: ratio 1.02/1.05 < 1, geometric tail sums
    assert wilson_bubble_test(_growing()).kind is SeriesKind.CONVERGENT


def test_equal_growth_rates_no_bubble():
    # D_t/a_t constant: harmonic-style divergence regardless of the level
    p = _growing(endow_growth=1.05, div_growth=1.05)
    assert wilson_bubble_test(p).kind is SeriesKind.DIVERGENT


def test_faster_dividend_growth_no_bubble():
    p = _growing(endow_growth=1.02, div_growth=1.05)
    assert wilson_bubble_test(p).kind is SeriesKind.DIVERGENT


def test_polynomial_boundary_cases_resolved_exactly():
    # D_t/a_t ~ (1+t)^-2 converges even though both ratios are 1
    p = WilsonParams(
        beta=0.4,
        young_endow=PolynomialSeq(scale=1.0, power=1.0),
        dividend=PolynomialSeq(scale=1.0, power=-1.0),
    )
    assert wilson_bubble_test(p).kind is SeriesKind.CONVERGENT
    # D_t/a_t ~ (1+t)^-1 diverges: no bubble at the harmonic boundary
    q = WilsonParams(
        beta=0.4,
        young_endow=PolynomialSeq(scale=1.0, power=1.0),
        dividend=constant(1.0),
    )
    assert wilson_bubble_test(q).kind is SeriesKind.DIVERGENT


def test_mixed_generator_forms_use_exact_route():
    # geometric over polynomial: ratio 0.9 < 1 dominates any power
    p = WilsonParams(
        beta=0.5,
        young_endow=PolynomialSeq(scale=1.0, power=0.5),
        dividend=GeometricSeq(scale=5.0, ratio=0.9),
    )
    assert wilson_bubble_test(p).kind is SeriesKind.CONVERGENT


def test_explicit_sequences_fall_back_to_sampling():
    n = 4000
    t = np.arange(n, dtype=float)
    div = np.ones(n)
    p = WilsonParams(
        beta=0.5,
        young_endow=ExplicitSeq(entries=tuple(1.05 ** t)),
        dividend=ExplicitSeq(entries=tuple(div)),
    )
    # terms 1.05^-t decay geometrically: sampled verdict is decisive
    assert wilson_bubble_test(p).kind is SeriesKind.CONVERGENT
    q = WilsonParams(
        beta=0.5,
        young_endow=ExplicitSeq(entries=tuple(1.0 + t)),
        dividend=ExplicitSeq(entries=tuple(div)),
    )
    assert wilson_bubble_test(q).kind is SeriesKind.DIVERGENT
    # terms (1+t)^-1.5 converge, but a finite sample near ratio 1 cannot
    # certify that: the fallback stays honest instead of guessing
    r = WilsonParams(
        beta=0.5,
        young_endow=ExplicitSeq(entries=tuple((1.0 + t) ** 1.5)),
        dividend=ExplicitSeq(entries=tuple(div)),
    )
    assert wilson_bubble_test(r).kind is SeriesKind.INCONCLUSIVE


def test_short_explicit_sequences_are_inconclusive():
    # 99 terms of a geometric decay: too few to decide, where the sampled
    # test used to raise; the horizon caps the terms the same way
    t = np.arange(99, dtype=float)
    p = WilsonParams(
        beta=0.5,
        young_endow=ExplicitSeq(entries=tuple(1.05 ** t)),
        dividend=constant(1.0),
    )
    kind, ratio = wilson_bubble_test(p)
    assert kind is SeriesKind.INCONCLUSIVE and np.isnan(ratio)
    long = WilsonParams(0.5, ExplicitSeq(tuple(1.05 ** np.arange(400.0))), constant(1.0))
    assert wilson_bubble_test(long).kind is SeriesKind.CONVERGENT
    assert wilson_bubble_test(long, horizon=99).kind is SeriesKind.INCONCLUSIVE
    # generators need no terms: a short horizon keeps the exact verdict
    assert wilson_bubble_test(_growing(), horizon=10).kind is SeriesKind.CONVERGENT


def test_zero_dividends_always_bubble():
    p = WilsonParams(beta=0.7, young_endow=constant(1.0), dividend=constant(0.0))
    assert wilson_bubble_test(p).kind is SeriesKind.CONVERGENT
    path = wilson_path(p, horizon=5)
    assert np.allclose(path.rate[:-1], 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        WilsonParams(beta=0.0, young_endow=constant(1.0), dividend=constant(0.0))
    with pytest.raises(ValueError):
        WilsonParams(
            beta=0.5,
            young_endow=GeometricSeq(scale=-1.0, ratio=1.05),
            dividend=constant(0.0),
        )
    with pytest.raises(ValueError):
        WilsonParams(
            beta=0.5,
            young_endow=constant(1.0),
            dividend=ExplicitSeq(entries=(0.1, -0.2)),
        )
    with pytest.raises(ValueError):
        wilson_path(_growing(), horizon=0)
