"""Properties over random draws: the land economy's necessity condition is
its bubble verdict, ``affine_path`` stays within its rounding bound of the
exact rational recurrence, and every scenario the model schemas admit
survives a trip through the serializer and the parser unchanged."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import (  # noqa: E402
    BareBonesParams,
    ExplicitSeq,
    GeometricSeq,
    PolynomialSeq,
    balanced_rate,
    classify_regime,
    parse_scenarios,
    price_slope,
    serialize_scenario,
    thresholds,
)
from bubblelab.recur import MIN_TERMS, UNIT_SLOPE_TOL, affine_path  # noqa: E402
from bubblelab.scenarios import MODELS, Scenario  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# --- necessity is the bubble verdict -----------------------------------------


@st.composite
def land_params(draw):
    """A calibration whose productivity is anywhere from 0 to twice the
    upper threshold, within 2e-11 relative of either threshold, or one of
    the doubles next to them."""
    pi = draw(st.floats(0.02, 0.98))
    beta = draw(st.floats(0.5, 0.99))
    delta = draw(st.floats(0.01, 1.0))
    low, high = thresholds(SimpleNamespace(pi=pi, beta=beta, delta=delta))
    edge = st.sampled_from([low, high])
    productivity = draw(
        st.one_of(
            st.floats(0.0, 2.0).map(lambda u: u * high),
            st.tuples(edge, st.floats(-2e-11, 2e-11)).map(lambda e: e[0] * (1 + e[1])),
            edge.map(lambda x: math.nextafter(x, 0.0)),
            edge.map(lambda x: math.nextafter(x, 3.0)),
            edge,
        )
    )
    rent = draw(st.floats(0.1, 5.0))
    return BareBonesParams(pi, beta, delta, productivity, rent)


@PROPERTY
@given(land_params())
def test_necessity_holds_exactly_when_the_regime_is_bubbly(p):
    regime = classify_regime(p)
    assert regime.necessity.holds == regime.has_bubble, regime


@PROPERTY
@given(land_params())
def test_necessity_is_the_max_formula_bit_for_bit(p):
    # G was max(1, rho) with a rho within the unit tolerance of 1 counted as
    # 1; it now reads the regime (rho when bubbly, else 1), which keeps its
    # bits because the land-only and balanced regimes have rho < 1
    rho = price_slope(p)
    g = 1.0 if abs(rho - 1.0) <= UNIT_SLOPE_TOL else max(1.0, rho)
    got = classify_regime(p).necessity
    assert [x.hex() for x in got] == [x.hex() for x in (balanced_rate(p), 1.0, g)]


# --- affine_path against the exact recurrence ---------------------------------


@st.composite
def affine_cases(draw):
    """Nonnegative coefficients, each a drawn scalar or one seeded uniform
    value per step, some of them zero."""
    horizon = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))

    def coefficient(top: float):
        if draw(st.booleans()):
            return draw(st.floats(0.0, top))
        return np.where(rng.random(horizon) < 0.05, 0.0, rng.uniform(0.0, top, horizon))

    slope, drift = coefficient(1.02), coefficient(1e3)
    return slope, drift, draw(st.floats(0.0, 1e3)), horizon


def dyadic(v: float) -> tuple[int, int]:
    """(n, s) with v = n / 2**s exactly."""
    n, d = v.as_integer_ratio()
    return n, d.bit_length() - 1


def within_rounding_bound(got: float, n: int, s: int, t: int) -> bool:
    """|got - x| <= gamma_2t x + 2 t 1.03**t 2**-1075 for x = n / 2**s, in
    integers scaled by 2**k: gamma_2t = 2tu / (1 - 2tu) = 2t / (2**53 - 2t)."""
    g, sg = dyadic(got)
    k = max(s, sg, 1075)
    g, x = g << (k - sg), n << (k - s)
    underflow = math.ceil(2 * t * 1.03**t) << (k - 1075)
    d = 2**53 - 2 * t
    return abs(g - x) * d <= 2 * t * x + underflow * d


@PROPERTY
@given(affine_cases())
def test_affine_path_is_within_its_rounding_bound_of_the_exact_recurrence(case):
    # each step rounds a product and a sum of nonnegative terms, so nothing
    # cancels and x_t carries at most 2t roundings: |x_t - exact_t| is within
    # gamma_2t = 2tu / (1 - 2tu) of exact_t. A product that underflows adds
    # at most 2**-1075 more, grown by at most 1.03 in each later step. The
    # exact x_t = n / 2**s is stepped in integers over the same doubles.
    slope, drift, initial, horizon = case
    got = affine_path(slope, drift, initial, horizon).tolist()
    assert got[0] == initial
    n, s = dyadic(initial)
    steps = (np.broadcast_to(v, horizon).tolist() for v in (slope, drift))
    for t, (a, c) in enumerate(zip(*steps), 1):
        (na, sa), (nc, sc) = dyadic(a), dyadic(c)
        n, s = n * na, s + sa
        if sc > s:
            n, s = n << (sc - s), sc
        n += nc << (s - sc)
        assert within_rounding_bound(got[t], n, s, t), (t, got[t])


# --- parse(serialize(scenario)) is the scenario -------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(0.0, allow_infinity=False)
POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
SEQUENCES = st.one_of(
    st.builds(GeometricSeq, NONNEGATIVE, POSITIVE),
    st.builds(PolynomialSeq, NONNEGATIVE, FINITE),
    st.lists(FINITE, min_size=1, max_size=5).map(lambda v: ExplicitSeq(tuple(v))),
)
VALUES = {
    "float": FINITE,
    "int": st.integers(-(10**6), 10**6),
    "bool": st.booleans(),
    "sequence": SEQUENCES,
}


def subset(draw, names: tuple[str, ...]) -> tuple[str, ...]:
    """A non-empty selection of names without repeats, in a drawn order."""
    return tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))


@st.composite
def scenarios(draw, model: str, sweep: bool):
    """A scenario as the parser returns it: every required key, each
    optional key given or left to its default, and for a run, maybe a
    column selection."""
    spec = MODELS[model]
    schema = spec.schema
    swept = None
    if sweep:
        swept = draw(st.sampled_from([k for k, opt in schema.items() if opt.param]))
    options = {}
    for key, opt in schema.items():
        if key == swept or (sweep and not opt.param):
            continue
        if opt.required or draw(st.booleans()):
            options[key] = draw(VALUES[opt.kind])
        elif opt.default is not None:
            options[key] = opt.default
    if "p0" in options and "w0" in options:
        # a section gives one start, not both
        del options[draw(st.sampled_from(["p0", "w0"]))]
    if model == "wilson":
        # the bubble test needs MIN_TERMS entries of an explicit list, and
        # as long a test_horizon when either sequence is a list
        lists = [k for k, seq in options.items() if isinstance(seq, ExplicitSeq)]
        for key in lists:
            if len(options[key].entries) < MIN_TERMS:
                options[key] = ExplicitSeq(options[key].entries * MIN_TERMS)
        if lists:
            options["test_horizon"] = max(options["test_horizon"], MIN_TERMS)
    name = draw(st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True))
    if sweep:
        values = draw(st.lists(FINITE, min_size=1, max_size=5))
        return Scenario(
            name, model, options, sweep=swept, sweep_values=tuple(values),
            stats=subset(draw, spec.stat_names),
        )
    columns = None
    if spec.columns and draw(st.booleans()):
        allowed = spec.path_columns
        if options.get("truncation") is None:
            allowed = tuple(c for c in allowed if c not in ("V", "bubble"))
        columns = subset(draw, allowed)
    return Scenario(name, model, options, columns=columns)


ALL_SCENARIOS = st.one_of(
    *(scenarios(model, sweep=False) for model in MODELS),
    *(scenarios(m, sweep=True) for m, spec in MODELS.items() if spec.grid),
)


@PROPERTY
@given(ALL_SCENARIOS)
def test_parse_serialize_round_trip(sc):
    (again,) = parse_scenarios(serialize_scenario(sc), source="round-trip")
    assert again == sc
