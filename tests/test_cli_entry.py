"""The process entry, ``bubblelab.cli.entry``, run as a fresh process.

``entry`` turns the cyclic collector off, runs ``main``, flushes stdout
and freezes the heap, so that the interpreter's shutdown skips its
collection over the import-time objects; under ``python -m`` the collector
is off before the package's modules load. ``main`` keeps no process-wide
effect, so every check of the entry here runs a child interpreter.
Children run block-buffered (``PYTHONUNBUFFERED`` removed) unless a check
asks otherwise, as they would from a shell.
"""

import ast
import contextlib
import gc
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bubblelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "bubblelab" / "cli.py"
FIGURES = ROOT / "scenarios" / "figures.ini"
FIGURE_HASHES = dict(
    reversed(line.split())
    for line in (ROOT / "bubblebench" / "figures.sha256").read_text().splitlines()
)
SWEEPS = """
[bb]
model = barebones
sweep = productivity
values = linspace(0.01, 0.99, 300)
stats = longrun_rate, regime, has_bubble, steady_price, threshold_low
pi = 0.1
beta = 0.95
delta = 0.08
rent = 1.0

[crowd]
model = tirole_crowdin
sweep = entrepreneur_prob
values = linspace(0.02, 0.98, 300)
stats = k_fundamental, k_bubbly, bubble_price, crowding
beta = 0.94
alpha = 0.31
delta = 0.6
tfp = 1.0

[sam]
model = samuelson
sweep = young_endow
values = linspace(0.35, 5.0, 300)
stats = stationary_price, autarky_rate, has_bubbly
beta = 0.5
old_endow = 1.0
"""


def _env(unbuffered: bool = False) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, "PYTHONPATH": src}


def _cli(*args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-m", "bubblelab.cli", *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
    )


def _in_process(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def _main_blocks() -> list[ast.If]:
    return [
        node for node in ast.parse(CLI.read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]


def _probe(source: str, *args: str) -> list[str]:
    """Run ``source`` in a child interpreter with ``args`` as its argv and
    return the words it prints to stderr."""
    done = subprocess.run(
        [sys.executable, "-c", source, *args], cwd=ROOT, env=_env(),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.split()


def _contents(out_dir: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def _hashes(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in _contents(out_dir).items()
    }


@pytest.mark.parametrize("code, text", [
    (0, None),
    (1, "[w]\nmodel = weil\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\nsurvival = 0.3\n"),
    (2, "[a]\nbeta = 0.5\n"),
])
def test_the_entry_exits_with_mains_status_and_all_its_output(tmp_path, code, text):
    ini = FIGURES
    if text is not None:
        ini = tmp_path / "s.ini"
        ini.write_text(text)
    args = ("run", str(ini), "--out-dir", str(tmp_path / "o"))
    done = _cli(*args)
    assert (done.returncode, done.stdout, done.stderr) == _in_process(*args)
    assert done.returncode == code
    assert (done.stdout == "") == (code != 0)
    assert (done.stderr == "") == (code == 0)


def test_the_entry_freezes_the_heap_before_exit():
    # runs the module as ``python -m`` does and reads the freeze count after
    probe = (
        "import gc, runpy, sys\n"
        "sys.argv = ['bubblelab', 'list-models']\n"
        "try:\n"
        "    runpy.run_module('bubblelab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    print(e.code, gc.get_freeze_count(), file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=_env(),
        capture_output=True, text=True,
    )
    code, frozen = done.stderr.split()
    assert done.stdout == (ROOT / "tests" / "golden" / "list_models.txt").read_text()
    assert code == "0" and int(frozen) > 0


def test_a_module_run_collects_nothing_once_numpy_loads(tmp_path):
    # each pass records whether numpy had started to import; the module
    # runs as ``python -m`` runs it
    probe = (
        "import gc, runpy, sys\n"
        "passes = []\n"
        "gc.callbacks.append(\n"
        "    lambda phase, info: phase == 'start' and passes.append('numpy' in sys.modules))\n"
        "sys.argv = ['bubblelab', 'run', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('bubblelab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    print(e.code, sum(passes), gc.isenabled(), gc.get_freeze_count(), file=sys.stderr)\n"
    )
    code, late_passes, enabled, frozen = _probe(probe, str(FIGURES), "--out-dir", str(tmp_path))
    assert (code, late_passes, enabled) == ("0", "0", "False")
    assert int(frozen) > 0
    assert _hashes(tmp_path) == FIGURE_HASHES


def test_an_import_keeps_the_collector_and_the_entry_runs_without_it(tmp_path):
    # the ``bubblelab`` script imports the module, then calls ``entry``
    probe = (
        "import gc, sys\n"
        "import bubblelab.cli\n"
        "print('numpy' in sys.modules, gc.isenabled(), file=sys.stderr)\n"
        "passes = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and passes.append(phase))\n"
        "sys.argv = ['bubblelab', 'run', *sys.argv[1:]]\n"
        "code = bubblelab.cli.entry()\n"
        "print(code, len(passes), gc.isenabled(), file=sys.stderr)\n"
    )
    ini = tmp_path / "sweeps.ini"
    ini.write_text(SWEEPS)
    words = _probe(probe, str(ini), "--out-dir", str(tmp_path / "o"))
    assert words == ["True", "True", "0", "0", "False"]
    assert len(_contents(tmp_path / "o")) == 6


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        code, _, _ = _in_process("run", str(FIGURES), "--out-dir", str(tmp_path))
        assert (code, gc.isenabled(), gc.get_freeze_count()) == (0, enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def test_a_runs_cyclic_garbage_does_not_grow_with_its_work(tmp_path):
    # with the collector held off, gc.collect() after a run counts all the
    # cyclic garbage it left; the 900-point sweeps do far more work than
    # the figures and leave as much
    ini = tmp_path / "sweeps.ini"
    ini.write_text(SWEEPS)
    runs = {"figures": FIGURES, "sweeps": ini}
    was = gc.isenabled()
    gc.disable()
    try:
        left = {}
        for rounds in range(2):   # the first round warms up
            for name, path in runs.items():
                gc.collect()
                code, _, _ = _in_process("run", str(path), "--out-dir", str(tmp_path / name))
                assert code == 0
                left[name] = gc.collect()
    finally:
        if was:
            gc.enable()
    assert left["figures"] == left["sweeps"] > 0


def test_the_module_imports_only_the_standard_library_before_its_guard():
    # the collector is switched off before anything that can load numpy
    (guard,) = [node for node in _main_blocks() if not isinstance(node.body[0], ast.Raise)]
    assert [ast.unparse(node) for node in guard.body] == ["gc.disable()"]
    docstring, *above = [
        node for node in ast.parse(CLI.read_text()).body if node.lineno < guard.lineno
    ]
    assert isinstance(docstring.value, ast.Constant) and isinstance(docstring.value.value, str)
    for node in above:
        if isinstance(node, ast.ImportFrom):
            assert node.module == "__future__"
        else:
            assert isinstance(node, ast.Import), ast.unparse(node)
            for alias in node.names:
                assert alias.name.partition(".")[0] in sys.stdlib_module_names
    assert "gc" in [alias.name for node in above for alias in getattr(node, "names", ())]


def test_the_script_and_the_main_block_share_one_entry():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        script = tomllib.load(f)["project"]["scripts"]["bubblelab"]
    (block,) = [
        node for node in _main_blocks()
        if isinstance(node.body[0], ast.Raise)
    ]
    (statement,) = block.body   # raise SystemExit(<entry>())
    assert script == f"bubblelab.cli:{statement.exc.args[0].func.id}"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_run_whose_reader_is_gone_writes_every_file(tmp_path, unbuffered):
    # buffered, the lines meet the closed pipe in the entry's final flush;
    # unbuffered, at the first ``wrote`` line of the run
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bubblelab.cli", "run", str(FIGURES),
             "--out-dir", str(tmp_path)],
            cwd=ROOT, env=_env(unbuffered), stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")
    assert _hashes(tmp_path) == FIGURE_HASHES


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "list-models"])
def test_a_report_whose_reader_is_gone_exits_0(tmp_path, command, unbuffered):
    # 400 sections make validate print more than one stdout buffer, so the
    # closed pipe meets a print inside main, buffered or not
    args = [command]
    if command == "validate":
        ini = tmp_path / "many.ini"
        ini.write_text("".join(
            f"[s{i}]\nmodel = samuelson\nbeta = 0.5\nyoung_endow = 3\nold_endow = 1\n\n"
            for i in range(400)
        ))
        args.append(str(ini))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bubblelab.cli", *args],
            cwd=ROOT, env=_env(unbuffered), stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_the_figures_run_under_dev_mode_and_warnings_as_errors(tmp_path):
    # dev mode reports any file left open, so every output is closed before
    # the entry freezes the heap
    done = _cli("run", str(FIGURES), "--out-dir", str(tmp_path), flags=("-X", "dev", "-W", "error"))
    assert (done.returncode, done.stderr) == (0, "")
    assert _hashes(tmp_path) == FIGURE_HASHES


def test_three_sweeps_under_dev_mode_and_warnings_as_errors(tmp_path):
    ini = tmp_path / "sweeps.ini"
    ini.write_text(SWEEPS)
    plain = _cli("run", str(ini), "--out-dir", str(tmp_path / "plain"))
    dev = _cli(
        "run", str(ini), "--out-dir", str(tmp_path / "dev"),
        flags=("-X", "dev", "-W", "error"),
    )
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (dev.returncode, dev.stderr) == (0, "")
    assert len(_contents(tmp_path / "dev")) == 6   # a sweep CSV and a summary each
    assert _contents(tmp_path / "dev") == _contents(tmp_path / "plain")
