"""A run loads only the model modules it runs.

The package and the scenario runner load ``bewley``, ``olg``, ``tirole``,
``valuation`` and ``wilson`` on first use. The test process has long since
loaded every module, so each check runs in a fresh interpreter. A module
counts as executed when ``sys.modules`` holds it as a plain module object;
absent, or a module object still waiting for its first use, it does not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ON_DEMAND = ("bewley", "olg", "tirole", "valuation", "wilson")

# runs each step in turn and prints, as JSON, the on-demand modules that
# have been executed after each one
PROBE = """
import contextlib, io, json, sys, types

def executed():
    return [
        name for name in {on_demand!r}
        if type(sys.modules.get("bubblelab." + name)) is types.ModuleType
    ]

seen = {{}}
import bubblelab.cli
seen["import bubblelab.cli"] = executed()
for argv in {steps!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = bubblelab.cli.main(argv)
    assert code == 0, (argv, code)
    seen[" ".join(argv[:2])] = executed()
print(json.dumps(seen))
"""


def _executed_after(steps: list[list[str]]) -> dict[str, list[str]]:
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(on_demand=ON_DEMAND, steps=steps)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_the_land_economy_runs_without_the_other_models(tmp_path):
    seen = _executed_after([
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
