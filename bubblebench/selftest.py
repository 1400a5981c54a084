"""Self-tests of the benchmark harness. Run from the root of a checkout:

    python3 bubblebench/selftest.py

They check that the traced run's work counts repeat exactly for a seed, and
that the correctness gate is not vacuous: a corrupted figures CSV and an
infinite cell in a stress path each make operations fail.
"""

from __future__ import annotations

import json
import shutil
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import Figures, StressPaths  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"


def count_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        m["name"]
        for m in spec["per_layer"]
        if m["unit"] in ("count", "bytes")
        or m["name"].endswith(("calls_per_point", "decisive_ratio"))
    ]


def fail_ratio(wl, tamper=None) -> float:
    samples, failed = run.op_loop(wl, 0.0, tamper)
    return failed / len(samples)


def corrupt_byte(output) -> None:
    f = output.out_dir / "fig1_low.csv"
    data = bytearray(f.read_bytes())
    i = data.index(b"\n") + 3
    data[i] = ord("7") if data[i] != ord("7") else ord("8")
    f.write_bytes(bytes(data))


def infinite_cell(output) -> None:
    _, results = output.stress
    res = results["barebones_balanced"]
    lines = res["csv"].split("\n")
    cells = lines[11].split(",")
    cells[1] = "inf"
    lines[11] = ",".join(cells)
    res["csv"] = "\n".join(lines)


class SelfTest(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(WORK, ignore_errors=True)

    def test_counts_repeat_exactly(self) -> None:
        names = count_metrics()
        first, _, failed1 = run.traced_run(7, 1.0, WORK / "a")
        second, _, failed2 = run.traced_run(7, 1.0, WORK / "b")
        self.assertEqual((failed1, failed2), (0, 0))
        self.assertGreater(len(names), 20)
        for name in names:
            self.assertEqual(first[name], second[name], name)

    def test_gate_fails_a_corrupted_figures_csv(self) -> None:
        wl = Figures(WORK / "figures", 1)
        wl.prepare()
        self.assertEqual(fail_ratio(wl), 0.0)
        self.assertGreater(fail_ratio(wl, corrupt_byte), 0.0)

    def test_gate_fails_an_infinite_stress_cell(self) -> None:
        wl = StressPaths(WORK / "stress", 1)
        wl.prepare()
        self.assertEqual(fail_ratio(wl), 0.0)
        self.assertGreater(fail_ratio(wl, infinite_cell), 0.0)


if __name__ == "__main__":
    unittest.main()
