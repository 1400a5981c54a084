"""Span tracer for the ``bubblelab`` package, used by the traced benchmark run.

``Tracer.install`` replaces every public function of every loaded
``bubblelab.*`` module, and every public method of the classes those modules
define, with a wrapper that records one span per call: which function, the
span that was open when it was called (its parent), and start and end times.
Modules bind functions by name (``from .recur import classify_series`` in
``valuation`` and ``wilson``, ``gross_rates`` in every model, the re-exports
in ``bubblelab/__init__``), so a function is replaced in every namespace that
holds it; patching only its defining module would miss those call sites.

Per-cell helpers (``csvio.format_float``, ``csvio.quote_field``) are left
alone: a span per CSV cell would swamp the trace. Cell and byte counts are
taken from the outputs instead.

Spans live in flat in-memory arrays until ``summary`` aggregates them or
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

SKIP = frozenset({"csvio.format_float", "csvio.quote_field"})


def _window_terms(args: dict) -> int:
    # (n - T) windows of T discounted terms each
    n, t = args["path"].price.size, args["truncation"]
    return (n - t) * t


def _series_terms(args: dict) -> int:
    return min(len(args["terms"]), args["horizon"])


# work counts read off a call's arguments: function -> (count name, counter)
INPUT_COUNTS = {
    "valuation.fundamental_value": ("valuation.window_terms", _window_terms),
    "valuation.truncation_identity_residuals": (
        "valuation.window_terms",
        _window_terms,
    ),
    "recur.classify_series": ("recur.classify_series.terms", _series_terms),
}


def qualified(fn: types.FunctionType) -> str:
    """``module.function`` (or ``module.Class.method``) without the package."""
    return f"{fn.__module__.removeprefix('bubblelab.')}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn: types.FunctionType, name: str):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, counts, errors = self._stack, self.counts, self.errors
        perf = time.perf_counter
        counter = INPUT_COUNTS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts[counter[0]] += counter[1](bound.arguments)
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}

        def wrapper_for(fn: types.FunctionType):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, qualified(fn))
            return wrappers[id(fn)]

        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "bubblelab" or name.startswith("bubblelab.")
        ]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(val, types.FunctionType):
                    if val.__module__.startswith("bubblelab") and qualified(val) not in SKIP:
                        self._patch(mod, attr, wrapper_for(val))
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for mattr, mval in list(vars(val).items()):
                        if not mattr.startswith("_") and isinstance(
                            mval, types.FunctionType
                        ):
                            self._patch(val, mattr, wrapper_for(mval))

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def summary(self, span_cost: float) -> dict[str, float]:
        """Per function ``calls``, ``total_s`` and ``self_s`` (span minus the
        time its child spans cover), per module ``self_s``, the input counts,
        the number of calls that raised (``errors``), and the top-level span
        time with the tracing cost of the nested spans taken out
        (``trace.top_s``)."""
        k = len(self.names)
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        calls = np.bincount(fid, minlength=k)
        total = np.bincount(fid, weights=dur, minlength=k)
        selft = np.bincount(fid, weights=dur - child, minlength=k)
        out: dict[str, float] = {}
        modules: Counter[str] = Counter()
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(selft[i])
            modules[name.split(".", 1)[0]] += float(selft[i])
        for mod, t in modules.items():
            out[f"{mod}.self_s"] = t
        out.update(self.counts)
        out["errors"] = sum(self.errors.values())
        top = float(dur[~nested].sum())
        out["trace.top_s"] = top - span_cost * int(nested.sum())
        out["trace.spans"] = int(dur.size)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: one row per span with its function and parent."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.asarray(self.fid),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _noop(x: object) -> object:
    return x


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to the span that encloses it."""
    wrapped = Tracer().wrap(_noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop(t0)
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped(t0)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
