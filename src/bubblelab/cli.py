"""Command line runner for scenario files.

Subcommands:
  run FILE [NAME ...]   run scenarios (all sections when no names given)
  validate FILE         parse and schema-check a scenario file
  list-models           print the model registry and accepted keys

Exit status: 0 on success, 1 when a scenario fails to run, 2 for bad
usage or unparseable scenario files.

``entry`` is the process entry (the ``bubblelab`` script and
``python -m bubblelab.cli``); ``main`` is the same run without its
process-wide steps, for callers in process.

A one-shot process runs without the cyclic garbage collector: reference
counting frees what a run drops, and the little cyclic garbage a run
leaves (the argument parser's) does not grow with its work. Under
``python -m`` the collector goes off before this module imports numpy
and the package's modules; the script imports the module first, and
``entry`` turns it off before ``main``. ``import bubblelab.cli`` leaves
the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

if __name__ == "__main__":
    gc.disable()

from .barebones import ConstructionError
from .scenarios import (
    RunError,
    ScenarioError,
    list_models,
    load_scenarios,
    run_scenario,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblelab",
        description="run closed-form bubble model scenarios and emit CSVs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run scenarios from a file")
    run_p.add_argument("file", help="scenario file")
    run_p.add_argument(
        "names", nargs="*", help="scenario names (default: all sections)"
    )
    run_p.add_argument(
        "--out-dir", default="out", help="output directory (default: out)"
    )
    run_p.add_argument(
        "--horizon", type=int, default=None, help="override scenario horizons"
    )
    run_p.add_argument(
        "--seed", type=int, default=None, help="override random seeds"
    )

    val_p = sub.add_parser("validate", help="check a scenario file")
    val_p.add_argument("file", help="scenario file")

    sub.add_parser("list-models", help="print the model registry")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(args.file)
    by_name = {sc.name: sc for sc in scenarios}
    if args.names:
        missing = [n for n in args.names if n not in by_name]
        if missing:
            raise ScenarioError(
                f"{args.file}: no scenario named "
                + ", ".join(repr(n) for n in missing)
                + f"; available: {', '.join(by_name)}"
            )
        selected = [by_name[n] for n in args.names]
    else:
        selected = scenarios
    for sc in selected:
        try:
            result = run_scenario(
                sc, args.out_dir, horizon=args.horizon, seed=args.seed
            )
        except (RunError, ConstructionError, ValueError, ArithmeticError) as e:
            raise RunError(f"{args.file} [{sc.name}]: {e}") from e
        for f in result.files:
            _say(f"wrote {f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenarios = load_scenarios(args.file)
    for sc in scenarios:
        kind = f"sweep over {sc.sweep}" if sc.is_sweep else "run"
        _say(f"ok: [{sc.name}] {sc.model} ({kind})")
    _say(f"{args.file}: {len(scenarios)} scenario(s) valid")
    return 0


def _say(line: str) -> None:
    """Print ``line``; a reader that has gone away is no error."""
    try:
        print(line)
    except BrokenPipeError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "list-models":
            _say(list_models().removesuffix("\n"))
            return 0
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RunError, ConstructionError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> int:
    """Run ``main`` as the whole process and return its exit status.

    The cyclic collector is off for the rest of the process (under
    ``python -m`` it is off already). Whatever stdout still buffers is
    flushed here; a reader that has gone away costs the run nothing, so
    the buffer is sent to the null device. Then the heap is frozen: every
    output is closed by now, and the interpreter's shutdown, whose final
    collection runs even with the collector off, skips numpy's and the
    package's import-time objects. atexit handlers, stream flushes and
    profilers still run at exit as usual.
    """
    gc.disable()
    try:
        return main()
    finally:
        try:
            if sys.stdout is not None:   # None when the process has no fd 1
                sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(entry())
