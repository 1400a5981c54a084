"""What the benchmark in ``bubblebench/`` needs of the package.

The benchmark reads the package by name: its traced run indexes a metric
for every per-layer name in ``BENCHMARK.json``, its tracer counts work from
arguments it reads by parameter name, and its workloads and correctness
gate call package functions as ``bl.<name>`` and ``csvio.<name>``. A name
that goes from the package breaks the benchmark only when it runs, so these
checks read ``BENCHMARK.json`` and ``bubblebench/*.py`` and resolve every
such name against the package. They change neither.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bubblebench"

# the per-function statistics of a per-layer metric
# ``<workload>.<module>.<function>.<stat>``
FUNCTION_STATS = ("calls", "self_s", "total_s", "calls_per_point")


def _public_function(module: str, name: str) -> bool:
    try:
        mod = importlib.import_module(f"bubblelab.{module}")
    except ModuleNotFoundError:
        return False
    fn = getattr(mod, name, None)
    return (
        not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
    )


def test_every_per_layer_function_is_a_public_function_of_its_module():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = [
        m["name"].split(".")
        for m in spec["per_layer"]
        if m["name"].count(".") == 3 and m["name"].endswith(FUNCTION_STATS)
    ]
    assert named
    missing = [
        ".".join(parts) for parts in named if not _public_function(parts[1], parts[2])
    ]
    assert missing == []


def _input_count_parameters() -> dict[str, set[str]]:
    """``module.function`` -> the parameters the tracer's input counters
    read by name: each ``INPUT_COUNTS`` entry's counter reads them as
    ``args["<parameter>"]``."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.args.args:
            args = node.args.args[0].arg
            reads[node.name] = {
                sub.slice.value
                for sub in ast.walk(node)
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == args
                and isinstance(sub.slice, ast.Constant)
            }
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["INPUT_COUNTS"]
    ]
    return {
        key.value: reads[value.elts[1].id]
        for key, value in zip(table.keys, table.values)
    }


def test_the_tracer_reads_parameters_the_functions_have():
    wanted = _input_count_parameters()
    assert wanted["valuation.fundamental_value"] == {"path", "truncation"}
    assert wanted["recur.classify_series"] == {"terms", "horizon"}
    missing = []
    for qualified, params in sorted(wanted.items()):
        module, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"bubblelab.{module}"), name, None)
        have = set(inspect.signature(fn).parameters) if callable(fn) else set()
        missing += [f"{qualified}({p})" for p in sorted(params - have)]
    assert missing == []


def _bench_reads() -> set[str]:
    """Every ``<alias>.<name>`` in ``bubblebench/*.py`` whose alias is the
    package or one of its modules, as ``bubblelab[.module].<name>``."""
    reads = set()
    for source in sorted(BENCH.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(
                    {a.asname: a.name for a in node.names if a.asname and a.name == "bubblelab"}
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "bubblelab":
                aliases.update({a.asname or a.name: f"bubblelab.{a.name}" for a in node.names})
        reads |= {
            f"{aliases[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
    return reads


def _resolves(dotted: str) -> bool:
    module, name = dotted.rsplit(".", 1)
    try:
        return hasattr(importlib.import_module(module), name)
    except ModuleNotFoundError:
        return False


def test_every_name_the_benchmark_reads_resolves():
    reads = _bench_reads()
    assert {"bubblelab.solve_affine", "bubblelab.csvio.emit_csv"} <= reads
    assert [name for name in sorted(reads) if not _resolves(name)] == []
