"""bubblelab benchmark: one command, every metric by name with its unit.

Run from the root of a checkout:

    python3 bubblebench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``--trace 0`` times one workload untraced (closed loop, one operation in
flight) and prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` makes the traced run of every workload, in process, and prints
the per-layer metrics. Every operation's outputs are checked; the last line
of standard output is the JSON result. The program is built from ``src/``
of the checkout; nothing is installed. Workload reasons and the layer to
metric table are in ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = {"figures": 9, "sweeps": 9, "stress_paths": 5}
IMPORTTIME_SAMPLES = 3
MIN_TRACE_PAIRS = 2
# Every time is in reference seconds: the measured time scaled by CAL_REF_S
# over the time of a calibration slice measured beside it, so the host's
# speed, which drifts by tens of percent on a shared machine, cancels out.
CAL_STEPS = 150_000   # the work of one calibration slice
CAL_REF_S = 0.085     # its median wall time on the 2-core x86 VM it was tuned on
CAL_SHARE = 0.6       # calibration time after an operation, as a share of its wall


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile, at most p90, with at least ten samples beyond
    it, and that percentile; with too few samples for one above the median,
    the median and 50."""
    s = sorted(values)
    n = len(s)
    i = min(math.ceil(0.9 * n) - 1, n - 11)
    if i < n // 2:
        return statistics.median(s), 50.0
    return s[i], min(90.0, 100.0 * (i + 1) / n)


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "loadavg": os.getloadavg(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREADS},
    }


def calibration_slice() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of pure-Python work (float
    arithmetic, formatting and joining, as in the sweep loop and CSV
    writing): the host's speed at this moment. It calls nothing of
    bubblelab, so no change to the program moves it."""
    c0, t0 = time.process_time(), time.perf_counter()
    x, parts = 0.3, []
    for _ in range(CAL_STEPS):
        x = 3.9 * x * (1.0 - x)
        parts.append(f"{x:.12g}")
    ",".join(parts)
    return time.perf_counter() - t0, time.process_time() - c0


def calibrate(seconds: float) -> tuple[float, float]:
    """Mean wall and CPU seconds of calibration slices run until ``seconds``
    have passed (at least one slice)."""
    slices = [calibration_slice()]
    while sum(w for w, _ in slices) < seconds:
        slices.append(calibration_slice())
    return statistics.fmean(w for w, _ in slices), statistics.fmean(c for _, c in slices)


def setup_seconds(wl, samples: int) -> float:
    """Median time, in reference seconds, of fresh processes that import
    ``bubblelab.cli`` (and, for ``stress_paths``, run the warm-up
    operation), after one unmeasured import that fills the bytecode cache.
    Each process lies between two runs of calibration slices."""
    from workloads import IMPORT_ARGV, run_child

    wl.work.mkdir(parents=True, exist_ok=True)
    err = wl.work / "setup.stderr"
    times = []
    before = None
    for argv in [IMPORT_ARGV] + [wl.setup_argv()] * samples:
        wall, _, _, code = run_child(argv, err)
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err.read_text()[-300:]}")
        after = calibrate(CAL_SHARE * wall)
        if before is not None:
            times.append(wall * CAL_REF_S / ((before[0] + after[0]) / 2))
        before = after
    return statistics.median(times)


def report_failures(wl_name: str, k: int, errors: list[str]) -> None:
    for e in errors[:3]:
        print(f"FAIL {wl_name} op {k}: {e}", file=sys.stderr)


def op_loop(wl, seconds: float, tamper=None) -> tuple[list, int]:
    """Closed loop: start operations until ``seconds`` have passed (at least
    one), checking each one's outputs outside its timed region. Each
    operation lies between two runs of calibration slices, and the mean of
    the two is its ``cal_wall`` and ``cal_cpu``. ``tamper`` edits an
    operation's outputs before the check (the gate's self-test)."""
    samples, failed = [], 0
    deadline = time.perf_counter() + seconds
    before = calibrate(0.3)
    while not samples or time.perf_counter() < deadline:
        s = wl.op(len(samples))
        after = calibrate(CAL_SHARE * s.wall)
        s.cal_wall = (before[0] + after[0]) / 2
        s.cal_cpu = (before[1] + after[1]) / 2
        before = after
        if tamper is not None:
            tamper(s.output)
        checked = wl.check(s.output)
        if checked.errors:
            failed += 1
            report_failures(wl.name, len(samples), checked.errors)
        s.output = None   # an operation's outputs are not kept past its check
        samples.append((s, checked.rows))
    return samples, failed


def timed_run(wl, seconds: float) -> tuple[dict, int, int]:
    setup = setup_seconds(wl, SETUP_SAMPLES[wl.name])
    wl.prepare()
    samples, failed = op_loop(wl, seconds)
    n = len(samples)
    walls = [s.wall * CAL_REF_S / s.cal_wall for s, _ in samples]
    p90, pct = tail(walls)
    raw = {
        "wall_s_p50": statistics.median(s.wall for s, _ in samples),
        "cpu_s_p50": statistics.median(s.cpu for s, _ in samples),
        "cal_wall_s_p50": statistics.median(s.cal_wall for s, _ in samples),
    }
    print(f"# {wl.name}: {n} ops; op_wall_s_p90 is the p{pct:.0f} of {n}; unscaled "
          + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    metrics = {
        "setup_s": setup,
        "op_wall_s_p50": statistics.median(walls),
        "op_wall_s_p90": p90,
        "op_cpu_s_p50": statistics.median(
            s.cpu * CAL_REF_S / s.cal_cpu for s, _ in samples
        ),
        "rows_per_s": statistics.median(rows / w for (_, rows), w in zip(samples, walls)),
        "peak_rss_mb": max(s.rss_mb for s, _ in samples),
        "ok_ratio": (n - failed) / n,
    }
    return metrics, n, failed


def import_metrics() -> dict:
    """``-X importtime`` of a fresh ``import bubblelab.cli``: numpy's
    cumulative import time and the self time of the bubblelab modules."""
    from workloads import IMPORT_ARGV, child_env

    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *IMPORT_ARGV[1:]],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        )
        rows = re.findall(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", done.stderr)
        numpy_s.append(next(int(c) for _, c, _, m in rows if m == "numpy") / 1e6)
        own_s.append(sum(int(s) for s, _, _, m in rows if m.split(".")[0] == "bubblelab") / 1e6)
    return {
        "init.numpy_import_s": statistics.median(numpy_s),
        "init.bubblelab_import_self_s": statistics.median(own_s),
    }


def traced_workload(wl, seconds: float, cost: float) -> tuple[dict, int, int]:
    """Alternate untraced and traced in-process runs of operation 0, so
    every operation has the same inputs; per-layer times are medians over
    the traced operations, counts are those of one operation."""
    from tracer import Tracer

    wl.prepare()
    wl.op_inproc(0)   # warm-up
    plain, traced, layers = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        for tracing in (False, True):
            tr = Tracer()
            if tracing:
                tr.install()
            t0 = time.perf_counter()
            try:
                out = wl.op_inproc(0)
            finally:
                wall = time.perf_counter() - t0
                tr.uninstall()
            checked = wl.check(out)
            attempted += 1
            if checked.errors:
                failed += 1
                report_failures(wl.name, attempted - 1, checked.errors)
            if tracing:
                traced.append(wall)
                layers.append({**tr.summary(cost), **checked.counts})
                if len(layers) == 1:
                    OUT.mkdir(exist_ok=True)
                    tr.dump(OUT / f"spans-{wl.name}.npz")
            else:
                plain.append(wall)
    base = statistics.median(plain)
    metrics = dict(layers[0])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(layer[key] for layer in layers)
    bb_points = metrics.pop("barebones_sweep_points", 0)
    if bb_points:
        for fn in ("classify_regime", "thresholds"):
            metrics[f"barebones.{fn}.calls_per_point"] = (
                metrics[f"barebones.{fn}.calls"] / bb_points
            )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / base
    metrics["trace.accounted_ratio"] = metrics.pop("trace.top_s") / base
    return metrics, attempted, failed


def traced_run(seed: int, seconds: float, work: Path) -> tuple[dict, int, int]:
    from tracer import span_cost
    from workloads import WORKLOADS

    metrics = import_metrics()
    cost = span_cost()
    attempted = failed = 0
    for name, cls in WORKLOADS.items():
        m, a, f = traced_workload(cls(work / name, seed), seconds / len(WORKLOADS), cost)
        metrics.update({f"{name}.{key}": v for key, v in m.items()})
        attempted += a
        failed += f
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [
        p for p in ("src/bubblelab/__init__.py", "scenarios/figures.ini")
        if not (ROOT / p).is_file()
    ]
    if spec is None or missing:
        print(
            f"error: {ROOT} is not a bubblelab checkout "
            f"(missing {', '.join(missing) or 'BENCHMARK.json'})",
            file=sys.stderr,
        )
        return 2
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")

    # One BLAS thread, here and in every child: bubblelab does no work a BLAS
    # pool would share out, and the pool's start-up spin competes with the
    # interpreter for the second core, so fresh-process times would swing
    # with the machine's other load.
    os.environ.update({v: "1" for v in BLAS_THREADS})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import bubblelab

    if Path(bubblelab.__file__).resolve().parent != ROOT / "src" / "bubblelab":
        print(f"error: imported bubblelab from {bubblelab.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print(json.dumps({"env": environment(args.seed)}), flush=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(args.seed, args.seconds, work)
            wanted = spec["per_layer"]
        else:
            wl = WORKLOADS[args.workload](work, args.seed)
            metrics, attempted, failed = timed_run(wl, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
