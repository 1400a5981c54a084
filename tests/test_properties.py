"""Properties over random draws: the land economy's necessity condition is
its bubble verdict, and every scenario the model schemas admit survives a
trip through the serializer and the parser unchanged."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bubblelab import (  # noqa: E402
    BareBonesParams,
    ExplicitSeq,
    GeometricSeq,
    PolynomialSeq,
    classify_regime,
    parse_scenarios,
    serialize_scenario,
    threshold_values,
)
from bubblelab.recur import MIN_TERMS  # noqa: E402
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
    low, high = threshold_values(pi, beta, delta)
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
