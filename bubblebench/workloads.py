"""The benchmark's three workloads: what one operation is, and its checks.

Each workload runs closed loop, one operation in flight:

* ``figures``: ``bubblelab run scenarios/figures.ini`` as a fresh process,
  the paper's reference reproduction (start-up dominated).
* ``sweeps``: a fresh-process ``bubblelab run`` on a scenario file written
  from the seed, three 20 000-point sweeps (per-point sweep loop and table
  CSV dominated).
* ``stress_paths``: the library operation in ``stress.py`` at the stress
  horizon, in process after import (path CSV and valuation dominated).

``op`` is the timed form (a fresh process for the CLI workloads); the traced
run uses ``op_inproc``, which calls ``bubblelab.cli.main`` in process. An
operation that raises is a failed operation, as a non-zero exit is.
``check`` reads the operation's outputs, returns the failures it finds and
counts the rows, cells and bytes produced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bubblelab as bl
import stress

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIGURES_INI = "scenarios/figures.ini"
FIGURES_SHA256 = BENCH / "figures.sha256"
IMPORT_ARGV = [sys.executable, "-c", "import bubblelab.cli"]
SWEEP_POINTS = 20_000
SPOT_CHECKS = 25      # sweep rows per sweep compared with the scalar functions
SWEEP_RTOL = 1e-10    # a 12-significant-digit cell against its float


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Output:
    returncode: int
    out_dir: Path | None = None
    stderr: str = ""
    stress: tuple | None = None   # (inputs, results) of a stress operation


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    output: Output
    cal_wall: float = math.nan   # the calibration slices beside the operation
    cal_cpu: float = math.nan


@dataclass
class Checked:
    errors: list[str]
    rows: int = 0                 # CSV data rows (sweep rows are sweep points)
    counts: dict[str, float] = field(default_factory=dict)


def run_child(argv: list[str], stderr_path: Path) -> tuple[float, float, float, int]:
    """Run a process to completion: wall s, user+sys CPU s, peak RSS MB, exit code."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT
        )
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def csv_counts(texts: list[str]) -> tuple[int, int, int]:
    """Data rows, cells and bytes of CSV texts (no field here holds a comma)."""
    rows = cells = size = 0
    for text in texts:
        n = text.count("\n") - 1
        rows += n
        cells += n * (text[: text.index("\n")].count(",") + 1)
        size += len(text.encode())
    return rows, cells, size


class CliWorkload:
    """A workload whose operation is one ``bubblelab run`` invocation."""

    name = ""
    barebones_sweep_csv = ""   # its rows give the per-point call counts

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.scenario_file = FIGURES_INI

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def setup_argv(self) -> list[str]:
        return IMPORT_ARGV

    def _out_dir(self, k: int) -> Path:
        out = self.work / f"op{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        return out

    def _argv(self, out: Path) -> list[str]:
        return ["run", str(self.scenario_file), "--out-dir", str(out)]

    def op(self, k: int) -> Sample:
        out = self._out_dir(k)
        err = self.work / f"op{k}.stderr"
        wall, cpu, rss, code = run_child(
            [sys.executable, "-m", "bubblelab.cli", *self._argv(out)], err
        )
        return Sample(wall, cpu, rss, Output(code, out, err.read_text()))

    def op_inproc(self, k: int) -> Output:
        from bubblelab import cli

        out = self._out_dir(k)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self._argv(out))
            except Exception:
                return Output(1, out, traceback.format_exc())
        return Output(code, out, err.getvalue())

    def check(self, output: Output) -> Checked:
        if output.returncode != 0:
            return Checked([f"exit {output.returncode}: {output.stderr.strip()[-300:]}"])
        files = {f.name: f for f in sorted(output.out_dir.iterdir())}
        csvs = {name: f.read_text() for name, f in files.items() if name.endswith(".csv")}
        errors = self.check_files(files, csvs)
        rows, cells, size = csv_counts(list(csvs.values()))
        sweep_rows = {
            name: text.count("\n") - 1
            for name, text in csvs.items()
            if name.endswith("_sweep.csv")
        }
        counts = {
            "csvio.cells": cells,
            "csvio.bytes": size,
            "scenarios.bytes_written": sum(f.stat().st_size for f in files.values()),
            "scenarios.sweep_points": sum(sweep_rows.values()),
            "barebones_sweep_points": sweep_rows.get(self.barebones_sweep_csv, 0),
        }
        shutil.rmtree(output.out_dir, ignore_errors=True)
        return Checked(errors, rows, counts)

    def check_files(self, files: dict[str, Path], csvs: dict[str, str]) -> list[str]:
        raise NotImplementedError


class Figures(CliWorkload):
    name = "figures"
    barebones_sweep_csv = "fig2_longrun_rate_sweep.csv"

    def prepare(self) -> None:
        super().prepare()
        self.reference = {}
        for line in FIGURES_SHA256.read_text().splitlines():
            digest, name = line.split()
            self.reference[name] = digest

    def check_files(self, files, csvs):
        errors = []
        if set(files) != set(self.reference):
            errors.append(f"outputs {sorted(files)} differ from {sorted(self.reference)}")
        for name, f in files.items():
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            if name in self.reference and digest != self.reference[name]:
                errors.append(f"{name}: sha256 {digest[:12]} differs from the reference")
        for name, text in csvs.items():
            if not name.endswith("_sweep.csv"):
                bad = stress.nonfinite_cells(text)
                if bad:
                    errors.append(f"{name}: non-finite cells {', '.join(bad)}")
        return errors


BAREBONES_STATS = (
    "longrun_rate", "regime", "has_bubble", "steady_price", "steady_rate",
    "price_slope", "min_wealth", "threshold_low", "threshold_high",
)
TIROLE_STATS = ("k_fundamental", "r_fundamental", "k_bubbly", "bubble_price", "crowding")
SAMUELSON_STATS = ("stationary_price", "autarky_rate", "has_bubbly")


def sweep_specs(seed: int) -> list[dict]:
    """The three sweeps of a ``sweeps`` run: grid endpoints and calibrations
    drawn from the seed within a few percent of fixed central values (fig2's
    calibration for barebones). The ranges are narrow so that every seed
    gives the same mix of regimes, hence about the same work: a bubbly
    steady state in every ``tirole_crowdin`` row, a bubble in part of the
    barebones grid, and a bubbly Samuelson equilibrium above young_endow of
    about 1."""
    r = random.Random(f"sweeps:{seed}")
    return [
        {
            "name": "barebones_productivity",
            "model": "barebones",
            "sweep": "productivity",
            "grid": (r.uniform(0.0, 0.02), r.uniform(0.98, 1.0)),
            "stats": BAREBONES_STATS,
            "params": {
                "pi": r.uniform(0.098, 0.102),
                "beta": r.uniform(0.948, 0.952),
                "delta": r.uniform(0.079, 0.081),
                "rent": r.uniform(0.9, 1.1),
                "land_supply": 1.0,
            },
        },
        {
            "name": "tirole_crowdin_prob",
            "model": "tirole_crowdin",
            "sweep": "entrepreneur_prob",
            "grid": (r.uniform(0.01, 0.02), r.uniform(0.95, 0.99)),
            "stats": TIROLE_STATS,
            "params": {
                "beta": r.uniform(0.93, 0.95),
                "alpha": r.uniform(0.3, 0.32),
                "delta": r.uniform(0.58, 0.62),
                "tfp": r.uniform(0.95, 1.05),
            },
        },
        {
            "name": "samuelson_young_endow",
            "model": "samuelson",
            "sweep": "young_endow",
            "grid": (r.uniform(0.3, 0.4), r.uniform(4.8, 5.2)),
            "stats": SAMUELSON_STATS,
            "params": {"beta": r.uniform(0.49, 0.51), "old_endow": r.uniform(0.95, 1.05)},
        },
    ]


def sweep_ini(specs: list[dict]) -> str:
    parts = []
    for s in specs:
        lo, hi = s["grid"]
        lines = [
            f"[{s['name']}]",
            f"model = {s['model']}",
            f"sweep = {s['sweep']}",
            f"values = linspace({lo!r}, {hi!r}, {SWEEP_POINTS})",
            f"stats = {', '.join(s['stats'])}",
        ]
        lines += [f"{k} = {v!r}" for k, v in s["params"].items()]
        parts.append("\n".join(lines) + "\n")
    return "\n".join(parts)


def sweep_oracle(model: str, params: dict, v: float) -> dict[str, object]:
    """One sweep row from the scalar closed forms."""
    nan = math.nan
    if model == "barebones":
        p = bl.BareBonesParams(productivity=v, **params)
        ss, th, reg = bl.steady_state(p), bl.thresholds(p), bl.classify_regime(p)
        return {
            "longrun_rate": bl.longrun_rate(p),
            "regime": reg.kind.value,
            "has_bubble": reg.has_bubble,
            "steady_price": ss.price if ss else nan,
            "steady_rate": ss.rate if ss else nan,
            "price_slope": bl.price_slope(p),
            "min_wealth": bl.min_wealth(p),
            "threshold_low": th.low,
            "threshold_high": th.high,
        }
    if model == "tirole_crowdin":
        ss = bl.tirole_crowdin_steady(bl.TiroleParams(entrepreneur_prob=v, **params))
        return {
            "k_fundamental": ss.k_fundamental,
            "r_fundamental": ss.r_fundamental,
            "k_bubbly": ss.bubbly.capital if ss.bubbly else nan,
            "bubble_price": ss.bubbly.price if ss.bubbly else nan,
            "crowding": ss.crowding or "none",
        }
    p = bl.SamuelsonParams(young_endow=v, **params)
    eq = bl.samuelson_equilibria(p)
    return {
        "stationary_price": eq.stationary_price if eq.has_bubbly else nan,
        "autarky_rate": bl.autarky_rate(p),
        "has_bubbly": eq.has_bubbly,
    }


def cell_matches(cell: str, want: object) -> bool:
    if isinstance(want, bool):
        return cell == ("true" if want else "false")
    if isinstance(want, str):
        return cell == want
    try:
        x = float(cell)
    except ValueError:
        return False
    if math.isnan(want):
        return math.isnan(x)
    return math.isclose(x, want, rel_tol=SWEEP_RTOL, abs_tol=1e-300)


class Sweeps(CliWorkload):
    name = "sweeps"
    barebones_sweep_csv = "barebones_productivity_sweep.csv"

    def prepare(self) -> None:
        super().prepare()
        self.specs = sweep_specs(self.seed)
        self.scenario_file = self.work / "sweeps.ini"
        self.scenario_file.write_text(sweep_ini(self.specs))
        self.checks = 0

    def check_files(self, files, csvs):
        errors = []
        r = random.Random(f"sweeps-check:{self.seed}:{self.checks}")
        self.checks += 1
        for s in self.specs:
            text = csvs.get(f"{s['name']}_sweep.csv")
            if text is None:
                errors.append(f"{s['name']}: no sweep CSV written")
                continue
            if "inf" in text:
                errors.append(f"{s['name']}: infinite cell in the sweep CSV")
            lines = text.split("\n")
            header = [s["sweep"], *s["stats"]]
            if lines[0].split(",") != header or len(lines) != SWEEP_POINTS + 2:
                errors.append(f"{s['name']}: header or row count differs")
                continue
            grid = np.linspace(*s["grid"], SWEEP_POINTS)
            for i in sorted(r.sample(range(SWEEP_POINTS), SPOT_CHECKS)):
                v = float(grid[i])
                cells = lines[i + 1].split(",")
                want = {s["sweep"]: v, **sweep_oracle(s["model"], s["params"], v)}
                bad = [h for h, c in zip(header, cells) if not cell_matches(c, want[h])]
                if bad or len(cells) != len(header):
                    errors.append(
                        f"{s['name']} row {i}: {', '.join(bad) or 'cell count'} "
                        "differ from the scalar functions"
                    )
        return errors


class StressPaths:
    """The in-process library operation of ``stress.py``."""

    name = "stress_paths"

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        self.op_inproc(0)   # warm-up, untimed

    def setup_argv(self) -> list[str]:
        return [sys.executable, str(BENCH / "stress.py"), str(self.seed)]

    def op(self, k: int) -> Sample:
        c0, t0 = time.process_time(), time.perf_counter()
        output = self.op_inproc(k)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Sample(wall, cpu, rss, output)

    def op_inproc(self, k: int) -> Output:
        inputs = stress.draw_inputs(self.seed, k)
        try:
            return Output(0, stress=(inputs, stress.run_op(inputs)))
        except Exception:
            return Output(1, stderr=traceback.format_exc())

    def check(self, output: Output) -> Checked:
        if output.returncode != 0:
            return Checked([output.stderr.strip()[-300:]])
        inputs, results = output.stress
        errors = stress.check_op(inputs, results)
        rows, cells, size = csv_counts([r["csv"] for r in results.values()])
        verdicts = [
            v
            for r in results.values()
            if r["report"] is not None
            for v in (r["report"].verdict, r["detection"].verdict)
        ]
        decisive = sum(v != "inconclusive" for v in verdicts)
        counts = {
            "csvio.cells": cells,
            "csvio.bytes": size,
            "valuation.decisive_ratio": decisive / len(verdicts),
        }
        return Checked(errors, rows, counts)


WORKLOADS = {w.name: w for w in (Figures, Sweeps, StressPaths)}
