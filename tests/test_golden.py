"""Golden outputs: every file a reference run writes, compared byte for byte.

The expected files under ``tests/golden/`` were written by the command line
runner:

    bubblelab run scenarios/figures.ini --out-dir tests/golden/figures
    bubblelab run tests/golden/models.ini --out-dir tests/golden/models
    bubblelab list-models > tests/golden/list_models.txt

They pin the output format (keys and their order in summaries, CSV columns,
12-digit floats) across refactors. A mismatch means the program changed its
output: fix the program, do not rewrite the golden file.
"""

from pathlib import Path

import pytest

from bubblelab import load_scenarios
from bubblelab.cli import main
from bubblelab.scenarios import MODELS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

RUNS = {
    "figures": ROOT / "scenarios" / "figures.ini",
    "models": GOLDEN / "models.ini",
}


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: got {g!r}, want {w!r}"
    return f"{len(got_lines)} lines, want {len(want_lines)}"


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_outputs_match_golden(run, tmp_path, capsys):
    out = tmp_path / run
    assert main(["run", str(RUNS[run]), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    expected_dir = GOLDEN / run
    written = sorted(f.name for f in out.iterdir())
    assert written == sorted(f.name for f in expected_dir.iterdir())
    for name in written:
        got = (out / name).read_bytes()
        want = (expected_dir / name).read_bytes()
        assert got == want, f"{run}/{name}: {_first_difference(got, want)}"


def test_golden_inputs_cover_every_model():
    scenarios = load_scenarios(RUNS["models"])
    assert {sc.model for sc in scenarios} == set(MODELS)
    sweepable = {m for m, spec in MODELS.items() if spec.grid is not None}
    assert {sc.model for sc in scenarios if sc.is_sweep} == sweepable


def test_list_models_matches_golden(capsys):
    assert main(["list-models"]) == 0
    want = (GOLDEN / "list_models.txt").read_text()
    assert capsys.readouterr().out == want
