"""The package is the one loader of its modules, and a run executes only
the models it runs.

``bubblelab`` hands out each of its modules unexecuted, to the scenario
runner as to any caller, and the module runs on its first attribute access.
The test process has long since loaded every module, so each check runs in
a fresh interpreter. A module counts as executed when ``sys.modules`` holds
it as a plain module object; absent, or a module object still waiting for
its first use, it does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ON_DEMAND = ("bewley", "olg", "tirole", "valuation", "wilson")

# runs each step in turn, a line of Python or the argv of a CLI run, and
# prints, as JSON, the package's modules that have been executed after each
PROBE = """
import contextlib, io, json, sys, types

def executed():
    return sorted(
        name.removeprefix("bubblelab.") for name, module in sys.modules.items()
        if name.partition(".")[0] == "bubblelab" and type(module) is types.ModuleType
    )

seen, namespace = {{}}, {{"sys": sys}}
for step in {steps!r}:
    if isinstance(step, str):
        exec(step, namespace)
        seen[step] = executed()
        continue
    import bubblelab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = bubblelab.cli.main(step)
    assert code == 0, (step, code)
    seen[" ".join(step[:2])] = executed()
print(json.dumps(seen))
"""


def _executed_after(
    steps: list[str | list[str]], among: tuple[str, ...] | None = ON_DEMAND
) -> dict[str, list[str]]:
    """The modules of ``among`` (every module of the package, ``bubblelab``
    itself included, when None) executed after each step."""
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(steps=steps)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return {
        step: [m for m in modules if among is None or m in among]
        for step, modules in json.loads(done.stdout).items()
    }


def test_the_land_economy_runs_without_the_other_models(tmp_path):
    seen = _executed_after([
        "import bubblelab.cli",
        ["validate", "scenarios/figures.ini"],
        ["list-models"],
        ["run", "scenarios/figures.ini", "--out-dir", str(tmp_path)],
    ])
    assert seen == {
        "import bubblelab.cli": [],
        "validate scenarios/figures.ini": [],
        "list-models": [],
        "run scenarios/figures.ini": [],
    }


def test_a_sweep_loads_its_model_on_first_use_and_writes_the_same_bytes(tmp_path):
    names = ("tirole_sweep", "samuelson_sweep")
    # the two sections as they stand in the golden inputs, blank-line separated
    blocks = (GOLDEN / "models.ini").read_text().split("\n\n")
    ini = tmp_path / "sweeps.ini"
    ini.write_text("\n".join(b for b in blocks if b.startswith(tuple(f"[{n}]" for n in names))))
    out = tmp_path / "out"
    seen = _executed_after([["run", str(ini), "--out-dir", str(out)]])
    assert seen["run " + str(ini)] == ["olg", "tirole"]
    written = sorted(f.name for f in out.iterdir())
    assert written == sorted(f"{n}{end}" for n in names for end in ("_summary.txt", "_sweep.csv"))
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN / "models" / name).read_bytes()


def test_the_package_hands_out_a_module_that_runs_on_first_use():
    take = "olg = bubblelab.olg\nassert sys.modules['bubblelab.olg'] is olg"
    use = "olg.SamuelsonParams"
    same = "assert bubblelab.scenarios.olg is bubblelab.olg"
    seen = _executed_after(["import bubblelab", take, use, "import bubblelab.cli", same])
    assert seen == {
        "import bubblelab": [],
        take: [],
        use: ["olg"],
        "import bubblelab.cli": ["olg"],
        same: ["olg"],
    }


def test_the_readme_quick_start_executes_the_land_economy_and_valuation():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("```python\n", readme.index("## Library quick start"))
    code = readme[start + len("```python\n"):readme.index("```\n", start + 1)]
    seen = _executed_after([code], among=None)
    assert seen[code] == ["barebones", "bubblelab", "paths", "recur", "sequences", "valuation"]
