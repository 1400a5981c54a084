"""Scenario files: a small INI-like format describing model runs.

A scenario file holds sections ``[name]``, each a list of ``key = value``
lines. Blank lines and lines starting with ``#`` or ``;`` are skipped.
Every section needs a ``model`` key naming an entry of ``MODELS``, the one
place that describes a model to the runner (see ``ModelSpec``). The
remaining keys are model parameters and run controls, checked against the
model's schema with errors that name the offending key and line.

Value syntax depends on the key's declared kind:

  float      ``0.95``, ``1e-3``
  int        ``500``
  bool       ``true`` / ``false``
  sequence   ``geometric(a, r)`` | ``polynomial(a, k)`` | ``constant(c)``
             | ``[v0, v1, ...]``
  values     ``linspace(lo, hi, n)`` | ``[v0, v1, ...]``
  names      comma-separated identifiers

A section with a ``sweep`` key is a parameter sweep: ``sweep`` names the
swept model parameter, ``values`` the grid, and ``stats`` the recorded
statistics. Sweeps accept only model parameters, not run controls, and the
swept parameter takes its points from ``values`` alone: giving it a value
of its own is an error.

Running a scenario writes ``<name>.csv`` (the path, when the model
produces one), ``<name>_summary.txt``, and for sweeps ``<name>_sweep.csv``
into the output directory. Output is deterministic byte for byte.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import BinaryIO, NamedTuple

import numpy as np

from . import barebones, bewley, csvio, olg, tirole, valuation, wilson
from .barebones import RegimeKind
from .paths import EquilibriumPath
from .recur import MIN_TERMS, UNIT_SLOPE_TOL, SeriesKind
from .sequences import ExplicitSeq, GeometricSeq, PolynomialSeq, Sequence, constant


class ScenarioError(ValueError):
    """Unparseable scenario text or a key that fails its schema."""


class RunError(RuntimeError):
    """A well-formed scenario that cannot be run (no equilibrium, etc.)."""


# ---------------------------------------------------------------------------
# raw parsing


class _RawSection(NamedTuple):
    name: str
    line: int
    pairs: dict[str, tuple[str, int]]


def _split_sections(text: str, source: str) -> list[_RawSection]:
    sections: list[_RawSection] = []
    seen: set[str] = set()
    current: _RawSection | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(
                    f"{source}:{lineno}: malformed section header {line!r}"
                )
            name = line[1:-1].strip()
            if not name:
                raise ScenarioError(f"{source}:{lineno}: empty section name")
            if name in seen:
                raise ScenarioError(
                    f"{source}:{lineno}: duplicate scenario {name!r}"
                )
            seen.add(name)
            current = _RawSection(name=name, line=lineno, pairs={})
            sections.append(current)
            continue
        if current is None:
            raise ScenarioError(
                f"{source}:{lineno}: key outside any [section]"
            )
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}"
            )
        key = key.strip()
        if not key:
            raise ScenarioError(f"{source}:{lineno}: missing key before '='")
        if key in current.pairs:
            raise ScenarioError(
                f"{source}:{lineno}: duplicate key {key!r} in [{current.name}]"
            )
        current.pairs[key] = (value.strip(), lineno)
    return sections


# ---------------------------------------------------------------------------
# value conversion

_CALL_RE = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


def _float(raw: str, where: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ScenarioError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: expected a finite number, got {raw!r}")
    return x


def _int(raw: str, where: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ScenarioError(f"{where}: expected an integer, got {raw!r}") from None


def _bool(raw: str, where: str) -> bool:
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ScenarioError(f"{where}: expected true or false, got {raw!r}")


def _float_list(raw: str, where: str) -> tuple[float, ...]:
    inner = raw[1:-1].strip()
    if not inner:
        raise ScenarioError(f"{where}: empty list")
    return tuple(_float(part.strip(), where) for part in inner.split(","))


def _call_args(inner: str, where: str, count: int) -> list[float]:
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != count:
        raise ScenarioError(
            f"{where}: expected {count} arguments, got {len(parts)}"
        )
    return [_float(p, where) for p in parts]


def _sequence(raw: str, where: str) -> Sequence:
    if raw.startswith("[") and raw.endswith("]"):
        return ExplicitSeq(_float_list(raw, where))
    m = _CALL_RE.match(raw)
    if m:
        fn, inner = m.group(1), m.group(2)
        # (constructor, argument count); built per call so a traced ``constant`` runs
        forms = dict(
            geometric=(GeometricSeq, 2),
            polynomial=(PolynomialSeq, 2),
            constant=(constant, 1),
        )
        if fn not in forms:
            raise ScenarioError(f"{where}: unknown sequence form {fn!r}")
        make, count = forms[fn]
        args = _call_args(inner, where, count)  # outside: ScenarioError is a ValueError
        try:
            return make(*args)
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from None
    raise ScenarioError(
        f"{where}: expected geometric(a, r), polynomial(a, k), constant(c) "
        f"or [v0, v1, ...], got {raw!r}"
    )


def _sweep_values(raw: str, where: str) -> np.ndarray:
    if raw.startswith("[") and raw.endswith("]"):
        return np.array(_float_list(raw, where))
    m = _CALL_RE.match(raw)
    if m and m.group(1) == "linspace":
        lo, hi, n = _call_args(m.group(2), where, 3)
        if n != int(n) or int(n) < 2:
            raise ScenarioError(f"{where}: linspace needs an integer count >= 2")
        try:
            return np.linspace(lo, hi, int(n))
        except (ValueError, MemoryError):
            raise ScenarioError(f"{where}: linspace count {int(n)} is too large") from None
    raise ScenarioError(
        f"{where}: expected linspace(lo, hi, n) or [v0, v1, ...], got {raw!r}"
    )


def _names(raw: str, where: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ScenarioError(f"{where}: expected a comma-separated name list")
    for i, name in enumerate(parts):
        if name in parts[:i]:
            raise ScenarioError(f"{where}: {name!r} is listed twice")
    return tuple(parts)


_CONVERTERS = dict(float=_float, int=_int, bool=_bool, sequence=_sequence)


# ---------------------------------------------------------------------------
# model schemas


class Opt(NamedTuple):
    kind: str                 # a key of _CONVERTERS
    required: bool = False
    default: object = None
    param: bool = False       # model parameter (sweepable) vs run control


_PARAM = Opt("float", required=True, param=True)
_LAND_SUPPLY = {"land_supply": Opt("float", default=1.0, param=True)}
_HORIZON = {"horizon": Opt("int", default=200)}


def _params(*keys: str) -> dict[str, Opt]:
    """Required (float) model parameters, in the given order."""
    return dict.fromkeys(keys, _PARAM)


# path columns every model path can write, and the land economy's extras
_PATH_COLUMNS = ("t", "P", "D", "R", "price_rent", "yield")
_LAND_PATH_COLUMNS = _PATH_COLUMNS + ("W", "K", "phi")
_VALUATION_COLUMNS = ("V", "bubble")

_OLG_COLUMNS = ("t", "P", "D", "R")
_WILSON_COLUMNS = _OLG_COLUMNS + ("yield",)
_BB_COLUMNS = _OLG_COLUMNS + ("W", "K", "phi", "price_rent")


class ModelSpec(NamedTuple):
    """One model as the scenario runner sees it.

    ``params`` turns resolved options into the model's parameter object,
    and ``run(params, options)`` returns the run's summary and path.
    ``run_scenario`` applies the ``--horizon`` and ``--seed`` overrides to
    the keys the schema has and values the path when ``truncation`` is
    given; no runner does either. ``grid`` computes the statistics named in
    ``stat_names`` as whole columns: it takes resolved options in which the
    swept parameter is a float64 array and returns one array per
    statistic. Run summaries read row 0 of a one-point grid. A model
    without ``grid`` cannot be swept. ``columns`` are the default path
    columns and ``path_columns`` every column its path can write; both are
    empty for a model that writes no path.
    """

    schema: dict[str, Opt]
    params: Callable[[dict], object]
    run: Callable[[object, dict], _ModelOutput]
    stat_names: tuple[str, ...] = ()
    grid: Callable[[dict], dict[str, np.ndarray]] | None = None
    columns: tuple[str, ...] = ()
    path_columns: tuple[str, ...] = ()


class Scenario(NamedTuple):
    name: str
    model: str
    options: dict[str, object]
    columns: tuple[str, ...] | None = None
    sweep: str | None = None
    sweep_values: np.ndarray | tuple[float, ...] | None = None
    stats: tuple[str, ...] | None = None

    @property
    def is_sweep(self) -> bool:
        return self.sweep is not None

    def _by_value(self) -> tuple:
        """The fields, the grid as a list so that == compares it by value."""
        return (*self[:5], np.asarray(self.sweep_values).tolist(), self.stats)

    def __eq__(self, other):
        return isinstance(other, Scenario) and self._by_value() == other._by_value()

    def __ne__(self, other):
        return not self == other


def _typed_scenario(raw: _RawSection, source: str) -> Scenario:
    """Check one section against its model's schema: the model, then the
    sweep keys or the path columns, then each option in file order, then
    the schema's defaults. A sweep takes model parameters only."""

    def where(key: str) -> str:
        return f"{source}:{raw.pairs[key][1]}: [{raw.name}] {key}"

    def section_error(problem: str) -> ScenarioError:
        return ScenarioError(f"{source}:{raw.line}: [{raw.name}] {problem}")

    pairs = {key: value for key, (value, _lineno) in raw.pairs.items()}
    if "model" not in pairs:
        raise section_error("is missing the model key")
    model = pairs.pop("model")
    if model not in MODELS:
        raise ScenarioError(
            f"{where('model')}: unknown model {model!r}; "
            f"known: {', '.join(sorted(MODELS))}"
        )
    spec = MODELS[model]
    schema = spec.schema
    sweep = values = stats = columns = None
    if "sweep" in pairs:
        if spec.grid is None:
            sweepable = sorted(m for m, s in MODELS.items() if s.grid is not None)
            raise ScenarioError(
                f"{where('sweep')}: model {model!r} does not support sweeps; "
                f"sweepable: {', '.join(sweepable)}"
            )
        sweep = pairs.pop("sweep").strip()
        if sweep not in schema or not schema[sweep].param:
            params = [k for k, o in schema.items() if o.param]
            raise section_error(
                f"cannot sweep {sweep!r}; sweepable parameters: {', '.join(params)}"
            )
        if "values" not in pairs:
            raise section_error("sweep needs a values key")
        values = _sweep_values(pairs.pop("values"), where("values"))
        values.flags.writeable = False   # run_sweep_values hands it out uncopied
        if "stats" not in pairs:
            raise section_error("sweep needs a stats key")
        stats = _names(pairs.pop("stats"), where("stats"))
        for s in stats:
            if s not in spec.stat_names:
                raise ScenarioError(
                    f"{where('stats')}: unknown statistic {s!r} for {model!r}; "
                    f"known: {', '.join(spec.stat_names)}"
                )
    elif "columns" in pairs:
        if not spec.columns:
            raise ScenarioError(
                f"{where('columns')}: model {model!r} produces no path"
            )
        columns = _names(pairs.pop("columns"), where("columns"))

    options: dict[str, object] = {}
    for key, value in pairs.items():
        opt = schema.get(key)
        if sweep is not None and (opt is None or not opt.param):
            problem = "only model parameters are allowed in sweeps"
        elif key == sweep:
            problem = (
                "the swept parameter takes its points from the values key, "
                "not a value of its own"
            )
        elif key in ("values", "stats"):
            problem = f"{key!r} is only valid in sweep scenarios"
        elif opt is None:
            problem = (
                f"unknown key for model {model!r}; known: {', '.join(sorted(schema))}"
            )
        else:
            options[key] = _CONVERTERS[opt.kind](value, where(key))
            continue
        raise ScenarioError(f"{where(key)}: {problem}")
    for key, opt in schema.items():
        if key in options or key == sweep or (sweep is not None and not opt.param):
            continue
        if opt.required:
            raise section_error(f"is missing required key {key!r}")
        if opt.default is not None:
            options[key] = opt.default
    if "p0" in options and "w0" in options:
        raise ScenarioError(f"{where('w0')}: give p0 or w0, not both")
    if model == "wilson" and not wilson._identically_zero(options["dividend"]):
        # the bubble test classifies sum D_t / a_t over the terms both have,
        # and over the first test_horizon of them when either is a list
        lists = {k: s for k, s in options.items() if isinstance(s, ExplicitSeq)}
        for key, seq in lists.items():
            if len(seq.entries) < MIN_TERMS:
                raise ScenarioError(
                    f"{where(key)}: the Wilson bubble test needs at least "
                    f"{MIN_TERMS} entries, got {len(seq.entries)}"
                )
        if lists and options["test_horizon"] < MIN_TERMS:
            raise ScenarioError(
                f"{where('test_horizon')}: the Wilson bubble test needs at "
                f"least {MIN_TERMS} terms, got {options['test_horizon']}"
            )

    for c in columns or ():
        if c not in csvio.PATH_COLUMNS:
            raise ScenarioError(
                f"{where('columns')}: unknown column {c!r}; "
                f"known: {', '.join(csvio.PATH_COLUMNS)}"
            )
        if c not in spec.path_columns:
            raise ScenarioError(
                f"{where('columns')}: model {model!r} does not write "
                f"column {c!r}; it writes: {', '.join(spec.path_columns)}"
            )
        if c in _VALUATION_COLUMNS and options.get("truncation") is None:
            raise ScenarioError(
                f"{where('columns')}: column {c!r} needs a "
                "truncation key to run the valuation"
            )
    return Scenario(raw.name, model, options, columns, sweep, values, stats)


def parse_scenarios(text: str, source: str = "<string>") -> list[Scenario]:
    sections = _split_sections(text, source)
    if not sections:
        raise ScenarioError(f"{source}: no scenarios found")
    return [_typed_scenario(s, source) for s in sections]


def load_scenarios(path: str | Path) -> list[Scenario]:
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as e:
        raise ScenarioError(f"cannot read {p}: {e}") from None
    try:
        text = data.decode("utf-8-sig")   # a leading byte-order mark is no text
    except UnicodeDecodeError as e:
        # the line as the parser counts lines, with the bad byte on it; the
        # offsets into e.object start after any byte-order mark
        lineno = len((e.object[: e.start].decode("utf-8") + "?").splitlines())
        raise ScenarioError(
            f"{p}:{lineno}: byte 0x{e.object[e.start]:02x} is not UTF-8 text"
        ) from None
    return parse_scenarios(text, source=str(p))


# ---------------------------------------------------------------------------
# serialization (round-trips through the parser)


def _format_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, GeometricSeq):
        return f"geometric({v.scale!r}, {v.ratio!r})"
    if isinstance(v, PolynomialSeq):
        return f"polynomial({v.scale!r}, {v.power!r})"
    if isinstance(v, ExplicitSeq):
        return "[" + ", ".join(repr(float(x)) for x in v.entries) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def serialize_scenario(sc: Scenario) -> str:
    lines = [f"[{sc.name}]", f"model = {sc.model}"]
    if sc.is_sweep:
        lines.append(f"sweep = {sc.sweep}")
        lines.append(
            "values = ["
            + ", ".join(map(repr, np.asarray(sc.sweep_values).tolist()))
            + "]"
        )
        lines.append("stats = " + ", ".join(sc.stats))
    for key, val in sc.options.items():
        if val is None:
            continue
        lines.append(f"{key} = {_format_value(val)}")
    if sc.columns is not None:
        lines.append("columns = " + ", ".join(sc.columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# statistics as whole columns
#
# A grid function applies the models' own formula helpers to arrays and
# writes only the branch selection with masks; each branch's formula is
# computed on its own rows alone.


def _param_arrays(o: dict, keys: tuple[str, ...], **defaults: float) -> SimpleNamespace:
    """The options under keys as equal-length float64 arrays, a scalar
    option repeated, for the formula helpers to read as parameters."""
    values = itemgetter(*keys)({**defaults, **o})
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in values))
    return SimpleNamespace(**dict(zip(keys, arrays)))


def _rows(p: SimpleNamespace, mask: np.ndarray) -> SimpleNamespace:
    return SimpleNamespace(**{k: v[mask] for k, v in vars(p).items()})


def _piecewise(p: SimpleNamespace, *cases) -> np.ndarray:
    """A column built from disjoint (mask, formula) cases, each formula
    applied to the rows of p under its mask only; NaN in the other rows."""
    out = np.full(next(iter(vars(p).values())).size, math.nan)
    for mask, formula in cases:
        out[mask] = formula(_rows(p, mask))
    return out


def _evaluate(grid: Callable[[dict], dict[str, np.ndarray]], o: dict) -> dict:
    """A grid call that raises where a formula divides by zero, overflows
    or yields an invalid value. Underflow is not an error: scalar float
    arithmetic rounds it to zero silently too."""
    with np.errstate(all="raise", under="ignore"):
        return grid(o)


def _grid_row(grid: Callable[[dict], dict[str, np.ndarray]], o: dict) -> dict:
    """A run's statistics: row 0 of a one-point grid, as Python values."""
    return {name: col.tolist()[0] for name, col in _evaluate(grid, o).items()}


def _barebones_grid(o: dict) -> dict[str, np.ndarray]:
    p = _param_arrays(o, tuple(_LAND))
    a, rho = p.productivity, barebones.price_slope(p)
    low, high = barebones.thresholds(p)
    # the regime, as in classify_regime
    land = a <= low
    boundary = ~land & (np.abs(rho - 1.0) <= UNIT_SLOPE_TOL)
    balanced = ~land & ~boundary & (rho < 1.0)
    bubbly = ~(land | boundary | balanced)
    regime = np.select(
        [land, boundary, balanced],
        [
            RegimeKind.LAND_ONLY.value,
            RegimeKind.BOUNDARY_NO_BUBBLE.value,
            RegimeKind.FUNDAMENTAL_BALANCED.value,
        ],
        RegimeKind.BUBBLY_UNBALANCED.value,
    )
    steady_rate = _piecewise(
        p,
        (land, barebones._land_only_rate),
        (balanced, barebones.balanced_rate),
    )
    return {
        "longrun_rate": np.where(land | balanced, steady_rate, rho),
        "regime": regime,
        "has_bubble": bubbly,
        "steady_price": _piecewise(
            p,
            (land, barebones._land_only_price),
            (
                balanced,
                lambda q: barebones._balanced_price(q, barebones.balanced_rate(q)),
            ),
        ),
        "steady_rate": steady_rate,
        "price_slope": rho,
        "min_wealth": barebones.min_wealth(p),
        "threshold_low": low,
        "threshold_high": high,
    }


def _tirole_grid(o: dict) -> dict[str, np.ndarray]:
    p = _param_arrays(o, (*_TIROLE, "entrepreneur_prob"), entrepreneur_prob=1.0)
    k_f = tirole._fundamental_capital(p)
    bubbly = tirole._bubble_margin(p) > 1.0
    q = _rows(p, bubbly)
    k_b, price = np.full((2, k_f.size), math.nan)
    k_b[bubbly] = tirole._bubbly_capital(q)
    price[bubbly] = tirole._bubble_price(q, k_b[bubbly])
    crowding = np.full(k_f.size, "none")
    crowding[bubbly] = np.where(k_b[bubbly] > k_f[bubbly], "in", "out")
    return {
        "k_fundamental": k_f,
        "r_fundamental": tirole._fundamental_rate(p),
        "k_bubbly": k_b,
        "bubble_price": price,
        "crowding": crowding,
    }


def _samuelson_grid(o: dict) -> dict[str, np.ndarray]:
    p = _param_arrays(o, tuple(_OLG))
    level = olg._stationary_level(p)
    bubbly = level > 0.0
    return {
        "stationary_price": np.where(bubbly, level, math.nan),
        "autarky_rate": olg.autarky_rate(p),
        "has_bubbly": bubbly,
    }


# ---------------------------------------------------------------------------
# per-model parameters and runners


class _ModelOutput(NamedTuple):
    summary: dict[str, object]
    path: EquilibriumPath | None = None


def _run_samuelson(p, o: dict) -> _ModelOutput:
    summary = _grid_row(_samuelson_grid, o)
    if not summary["has_bubbly"]:
        raise RunError(
            "no positive stationary price at these endowments; only autarky exists"
        )
    p0 = o.get("p0")
    if p0 is None:
        p0 = summary["stationary_price"]
    path = olg.samuelson_price_path(p, p0, o["horizon"])
    summary["p0"] = p0
    return _ModelOutput(summary, path)


def _run_weil(p, o: dict) -> _ModelOutput:
    price = olg.weil_stationary_price(p)
    if price is None:
        raise RunError(
            "no stochastic bubble at these parameters "
            "(survival-weighted demand too low)"
        )
    path = olg.weil_sample_path(p, seed=o["seed"], horizon=o["horizon"])
    summary = {
        "stationary_price": price,
        "seed": o["seed"],
        "collapse_time": path.meta["collapse_time"],
        "mean_collapse_time": math.inf if p.survival == 1.0 else 1.0 / (1.0 - p.survival),
    }
    return _ModelOutput(summary, path)


def _run_bewley(p, o: dict) -> _ModelOutput:
    eq = bewley.bewley_price(p)
    if not eq.exists:
        return _ModelOutput({"exists": False, "reason": eq.reason})
    path = bewley.bewley_path(p, o["horizon"])
    checks = bewley.bewley_validate(p, horizon=min(o["horizon"], 1000))
    summary = {
        "exists": True,
        "price_level": eq.price_level,
        "rate": p.growth,
        "max_rich_residual": checks["max_rich_residual"],
        "min_poor_slack": checks["min_poor_slack"],
    }
    return _ModelOutput(summary, path)


def _run_tirole(p, o: dict) -> _ModelOutput:
    stats = _grid_row(_tirole_grid, o)
    bubbly = stats["crowding"] != "none"
    summary = {key: stats[key] for key in ("k_fundamental", "r_fundamental")}
    if bubbly:
        bub = tirole.BubblySteady(stats["k_bubbly"], stats["bubble_price"])
        summary["k_bubbly"] = bub.capital
        summary["bubble_price"] = bub.price
        summary["bubble_rate"] = bub.rate
    summary["crowding"] = stats["crowding"]
    if bubbly and p.entrepreneur_prob == 1.0:
        summary["savings_residual"] = tirole.savings_identity_residual(p)
    elif bubbly:
        summary["crossover_prob"] = tirole.crossover_pi(p)
    return _ModelOutput(summary)


def _run_wilson(p, o: dict) -> _ModelOutput:
    path = wilson.wilson_path(p, o["horizon"])
    test = wilson.wilson_bubble_test(p, horizon=o["test_horizon"])
    summary = {**_yield_verdict(test.kind), "tail_ratio": test.tail_ratio}
    return _ModelOutput(summary, path)


def _yield_verdict(kind: SeriesKind) -> dict[str, object]:
    """The yield series' verdict, and ``has_bubble`` where the verdict
    decides it: an inconclusive series says nothing about the bubble."""
    if kind is SeriesKind.INCONCLUSIVE:
        return {"yield_series": kind.value}
    return {"yield_series": kind.value, "has_bubble": kind is SeriesKind.CONVERGENT}


def _land_params(o: dict, a: float, d: float) -> barebones.BareBonesParams:
    """The land economy's parameters at productivity a and rent d."""
    return barebones.BareBonesParams(
        o["pi"], o["beta"], o["delta"], a, d, o["land_supply"]
    )


def _land_summary(p: barebones.BareBonesParams, o: dict) -> dict[str, object]:
    """Regime, thresholds and rates, then the steady state if one exists."""
    stats = _grid_row(_barebones_grid, o)
    summary = {
        key: stats[key]
        for key in (
            "regime", "has_bubble", "threshold_low", "threshold_high",
            "longrun_rate",
        )
    }
    # the necessity triple's R and G, as classify_regime reads them
    summary["counterfactual_rate"] = barebones.balanced_rate(p)
    summary["economy_growth"] = stats["price_slope"] if stats["has_bubble"] else 1.0
    if not math.isnan(stats["steady_price"]):
        summary["steady_price"] = stats["steady_price"]
        summary["steady_rate"] = stats["steady_rate"]
    return summary


def _run_barebones(p, o: dict) -> _ModelOutput:
    summary = _land_summary(p, o)
    p0, w0, horizon = o.get("p0"), o.get("w0"), o["horizon"]
    if p0 is not None:
        w0 = barebones._wealth_at_price(p, p0)
    if w0 is not None:
        res = barebones.simulate_timevarying(
            p, w0, horizon, require_feasible=o["require_feasible"]
        )
        summary["w_bound"] = barebones.min_wealth(p)
        summary["feasible"] = not res.violations
        return _ModelOutput(summary, res.path)
    if "steady_price" not in summary:
        raise RunError(
            "no steady state: the price-map slope is at or above 1; give p0 or w0"
        )
    return _ModelOutput(summary, barebones.steady_path(p, horizon))


def _run_barebones_construct(p, o: dict) -> _ModelOutput:
    built = barebones.construct_equilibrium(p, o["k0"], o["horizon"])
    summary = _land_summary(p, o)
    summary["prephase_length"] = built.prephase_length
    summary["w_switch"] = built.w_switch
    summary["w_bound"] = barebones.min_wealth(p)
    summary["prephase_rate_residual"] = built.prephase_rate_residual
    return _ModelOutput(summary, built.path)


def _switch_params(o: dict) -> tuple[barebones.BareBonesParams, ...]:
    """Parameters before and during the shock window."""
    return (
        _land_params(o, o["base_productivity"], o["rent"]),
        _land_params(o, o["shock_productivity"], o.get("shock_rent", o["rent"])),
    )


def _run_barebones_switch(params, o: dict) -> _ModelOutput:
    base, shock = params
    path = barebones.simulate_regime_switch(
        base, shock, o["shock_on"], o["shock_off"], o["horizon"]
    )
    summary = {
        "base_regime": barebones.classify_regime(base).kind.value,
        "shock_regime": barebones.classify_regime(shock).kind.value,
        "base_steady_price": barebones.steady_state(base).price,
        "window": f"[{o['shock_on']}, {o['shock_off']})",
        "arbitrage_violations": len(path.meta["arbitrage_violations"]),
    }
    return _ModelOutput(summary, path)


def _run_barebones_timevarying(p, o: dict) -> _ModelOutput:
    res = barebones.simulate_timevarying(
        p,
        o["w0"],
        o["horizon"],
        productivity=o["productivity"],
        rent=o["rent"],
        require_feasible=o["require_feasible"],
    )
    summary = {
        **_yield_verdict(res.series.kind),
        "final_slope_ratio": float(res.slope_ratio[-1]),
        "arbitrage_violations": len(res.violations),
    }
    return _ModelOutput(summary, res.path)


# ---------------------------------------------------------------------------
# the model registry


def _positional(
    module: ModuleType, cls: str, *keys: str
) -> Callable[[dict], object]:
    """A params builder passing the options under keys to module.cls, in
    order. The class is looked up per call, so that building the registry
    loads no model module."""
    get = itemgetter(*keys)
    return lambda o: getattr(module, cls)(*get(o))


_OLG = _params("beta", "young_endow", "old_endow")
_BEWLEY = _params("beta", "gamma", "growth", "rich_endow", "poor_endow")
_LAND = {**_params("pi", "beta", "delta", "productivity", "rent"), **_LAND_SUPPLY}

_TIROLE = ("beta", "alpha", "delta", "tfp")


def _tirole_spec(*keys: str) -> ModelSpec:
    return ModelSpec(
        schema=_params(*keys),
        params=_positional(tirole, "TiroleParams", *keys),
        run=_run_tirole,
        stat_names=(
            "k_fundamental", "r_fundamental", "k_bubbly", "bubble_price",
            "crowding",
        ),
        grid=_tirole_grid,
    )


MODELS: dict[str, ModelSpec] = {
    "samuelson": ModelSpec(
        schema={**_OLG, "p0": Opt("float"), **_HORIZON},
        params=_positional(olg, "SamuelsonParams", *_OLG),
        run=_run_samuelson,
        stat_names=("stationary_price", "autarky_rate", "has_bubbly"),
        grid=_samuelson_grid,
        columns=_OLG_COLUMNS, path_columns=_PATH_COLUMNS,
    ),
    "weil": ModelSpec(
        schema={
            **_OLG,
            **_params("survival"),
            "seed": Opt("int", default=0),
            **_HORIZON,
        },
        params=_positional(olg, "WeilParams", *_OLG, "survival"),
        run=_run_weil,
        columns=_OLG_COLUMNS, path_columns=_PATH_COLUMNS,
    ),
    "bewley": ModelSpec(
        schema={**_BEWLEY, **_HORIZON},
        params=_positional(bewley, "BewleyParams", *_BEWLEY),
        run=_run_bewley,
        columns=_OLG_COLUMNS, path_columns=_PATH_COLUMNS,
    ),
    # tirole is tirole_crowdin without the entrepreneur_prob key: every
    # young agent is an entrepreneur (TiroleParams' default of 1)
    "tirole": _tirole_spec(*_TIROLE),
    "tirole_crowdin": _tirole_spec(*_TIROLE, "entrepreneur_prob"),
    "wilson": ModelSpec(
        schema={
            **_params("beta"),
            "young_endow": Opt("sequence", required=True),
            "dividend": Opt("sequence", required=True),
            **_HORIZON,
            "test_horizon": Opt("int", default=10_000),
        },
        params=_positional(wilson, "WilsonParams", "beta", "young_endow", "dividend"),
        run=_run_wilson,
        columns=_WILSON_COLUMNS, path_columns=_PATH_COLUMNS,
    ),
    "barebones": ModelSpec(
        schema={
            **_LAND,
            **_HORIZON,
            "p0": Opt("float"),
            "w0": Opt("float"),
            "truncation": Opt("int"),
            "require_feasible": Opt("bool", default=False),
        },
        params=_positional(barebones, "BareBonesParams", *_LAND),
        run=_run_barebones,
        stat_names=(
            "longrun_rate", "regime", "has_bubble", "steady_price",
            "steady_rate", "price_slope", "min_wealth", "threshold_low",
            "threshold_high",
        ),
        grid=_barebones_grid,
        columns=_BB_COLUMNS, path_columns=_LAND_PATH_COLUMNS + _VALUATION_COLUMNS,
    ),
    "barebones_construct": ModelSpec(
        schema={**_LAND, "k0": Opt("float", required=True), **_HORIZON},
        params=_positional(barebones, "BareBonesParams", *_LAND),
        run=_run_barebones_construct,
        columns=_BB_COLUMNS, path_columns=_LAND_PATH_COLUMNS,
    ),
    "barebones_switch": ModelSpec(
        schema={
            **_params("pi", "beta", "delta", "rent"),
            **_LAND_SUPPLY,
            **_params("base_productivity", "shock_productivity"),
            "shock_rent": Opt("float", param=True),
            "shock_on": Opt("int", required=True),
            "shock_off": Opt("int", required=True),
            "horizon": Opt("int", default=50),
        },
        params=_switch_params,
        run=_run_barebones_switch,
        columns=_BB_COLUMNS, path_columns=_LAND_PATH_COLUMNS,
    ),
    "barebones_timevarying": ModelSpec(
        schema={
            **_params("pi", "beta", "delta"),
            **_LAND_SUPPLY,
            "productivity": Opt("sequence", required=True),
            "rent": Opt("sequence", required=True),
            "w0": Opt("float", required=True),
            **_HORIZON,
            "require_feasible": Opt("bool", default=True),
        },
        params=lambda o: _land_params(
            o, float(o["productivity"].values(1)[0]), float(o["rent"].values(1)[0])
        ),
        run=_run_barebones_timevarying,
        columns=_BB_COLUMNS, path_columns=_LAND_PATH_COLUMNS,
    ),
}


# ---------------------------------------------------------------------------
# running


def _sweep_point(sc: Scenario, spec: ModelSpec, v: float) -> None:
    """Check one grid point as a one-point grid; a RunError names it."""
    try:
        spec.params({**sc.options, sc.sweep: v})
        _evaluate(spec.grid, {**sc.options, sc.sweep: np.array([v])})
    except (ValueError, ArithmeticError) as e:
        raise RunError(f"sweep at {sc.sweep} = {v!r}: {e}") from e


def run_sweep_values(
    sc: Scenario,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Evaluate a sweep in memory, as whole columns in one grid call: the
    swept grid as a float64 array (the parsed one itself, not a copy) plus
    one array per stat. A failure names the first grid point that fails on
    its own."""
    if not sc.is_sweep:
        raise ValueError(f"scenario {sc.name!r} is not a sweep")
    spec = MODELS[sc.model]
    grid = np.asarray(sc.sweep_values, dtype=float)
    try:
        # every parameter constraint is an interval and the grid is finite,
        # so its two ends stand for every point
        for v in (grid.min(), grid.max()):
            spec.params({**sc.options, sc.sweep: float(v)})
        columns = _evaluate(spec.grid, {**sc.options, sc.sweep: grid})
    except (ValueError, ArithmeticError) as e:
        for v in grid.tolist():
            _sweep_point(sc, spec, v)
        raise RunError(f"sweep over {sc.sweep}: {e}") from e
    return grid, {name: columns[name] for name in sc.stats}


class RunResult(NamedTuple):
    scenario: str
    files: list[Path]
    summary: dict[str, object]


def _summary_text(summary: dict[str, object]) -> str:
    lines = [f"{key} = {csvio._format_value(val)}" for key, val in summary.items()]
    return "\n".join(lines) + "\n"


def _write(path: Path, content: Callable[[BinaryIO], object]) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so that a failed write leaves no partial output.
    ``content`` is a function that writes the bytes into the open binary
    file (a CSV a block of rows at a time, a summary at once)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            content(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_finite(
    path: EquilibriumPath, columns: tuple[str, ...], arrays: list[np.ndarray]
) -> None:
    """Raise RunError at the first non-finite cell of ``arrays``, as written.
    NaN is allowed in the final R (no return after the last period) and in
    R and yield from a Weil bubble's collapse on (a zero price)."""
    n = len(path)
    collapse = path.meta.get("collapse_time")
    nan_from = {"R": n - 1} if collapse is None else {"R": collapse, "yield": collapse}
    for name, arr in zip(columns, arrays):
        if name == "t":
            continue
        bad = ~np.isfinite(arr)
        start = nan_from.get(name, arr.size)
        bad[start:] &= ~np.isnan(arr[start:])
        if bad.any():
            t = int(bad.argmax())
            raise RunError(
                f"column {name!r} is {csvio.format_float(arr[t])} "
                f"at t = {t}; only finite values are written"
            )


def run_scenario(
    sc: Scenario,
    out_dir: str | Path,
    horizon: int | None = None,
    seed: int | None = None,
) -> RunResult:
    """Run one scenario, writing its CSV and summary into out_dir; horizon
    and seed override the options of those names where the model has them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    if sc.is_sweep:
        values, stats = run_sweep_values(sc)
        header = [sc.sweep, *sc.stats]
        table = [values, *(stats[name] for name in sc.stats)]
        sweep_file = out / f"{sc.name}_sweep.csv"
        _write(sweep_file, lambda fh: csvio.write_csv(fh, header, table, len(values)))
        files.append(sweep_file)
        summary: dict[str, object] = {
            "model": sc.model,
            "sweep": sc.sweep,
            "points": len(values),
        }
    else:
        spec = MODELS[sc.model]
        o = dict(sc.options)
        for key, value in (("horizon", horizon), ("seed", seed)):
            if value is not None and key in spec.schema:
                o[key] = value
        # every sequence option is read for t = 0..horizon
        for key, value in o.items():
            if isinstance(value, ExplicitSeq) and len(value.entries) <= o["horizon"]:
                raise RunError(
                    f"{key}: explicit sequence has {len(value.entries)} entries; "
                    f"horizon {o['horizon']} needs {o['horizon'] + 1}"
                )
        summary, path = spec.run(spec.params(o), o)
        summary = {"model": sc.model, **summary}
        if path is not None:
            report = None
            if o.get("truncation") is not None:
                report = valuation.fundamental_value(path, o["truncation"])
                summary["valuation_verdict"] = report.verdict
                summary["limit_rate"] = report.limit_rate
            columns = sc.columns
            if columns is None:
                columns = spec.columns + (() if report is None else _VALUATION_COLUMNS)
            arrays = [csvio.column_array(path, name, report) for name in columns]
            _check_finite(path, columns, arrays)
            csv_file = out / f"{sc.name}.csv"
            _write(csv_file, lambda fh: csvio.write_csv(fh, list(columns), arrays, len(path)))
            files.append(csv_file)

    summary_file = out / f"{sc.name}_summary.txt"
    _write(summary_file, lambda fh: fh.write(_summary_text(summary).encode()))
    files.append(summary_file)
    return RunResult(scenario=sc.name, files=files, summary=summary)


def list_models() -> str:
    """Human-readable registry of models and their scenario keys."""
    lines = []
    for model in sorted(MODELS):
        spec = MODELS[model]
        keys = [k if opt.required else f"[{k}]" for k, opt in spec.schema.items()]
        tail = "" if spec.columns else "  (no path output)"
        lines.append(f"{model}: {', '.join(keys)}{tail}")
        if spec.grid is not None:
            lines.append(f"  sweep stats: {', '.join(spec.stat_names)}")
    return "\n".join(lines) + "\n"
