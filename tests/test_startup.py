"""What a fresh interpreter loads: the package namespace resolves its names on
first access, and the CLI runs numpy's BLAS on one thread. The process entry
point `cli.run` changes the garbage collector's state for the whole process,
so each of its tests runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sitegame
from conftest import seeded_scenario
from sitegame.cli import main

SRC = str(Path(sitegame.__file__).resolve().parent.parent)


def run_python(*args, env=None):
    """Run a fresh interpreter that imports this checkout's sitegame, with
    OPENBLAS_NUM_THREADS unset unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**base, **(env or {})}
    )


def run_code(code, *argv, env=None):
    """The stdout of ``code`` run by a fresh interpreter with ``sys.argv[1:]``
    set to ``argv``; it must exit 0."""
    result = run_python("-c", textwrap.dedent(code), *argv, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_sitegame_imports_no_submodule_and_no_numpy():
    out = run_code(
        """
        import sys
        import sitegame
        print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("sitegame")))
        """
    )
    assert out.split("\n")[0] == "False ['sitegame']"


def test_public_names_are_their_submodules_objects():
    # Importing the `payoff` module, as the loop below does, makes the import
    # system bind it on the package; `sitegame.payoff` must stay the function.
    run_code(
        """
        import importlib
        import sitegame
        import sitegame.tensor

        assert sitegame.report.__name__ == "sitegame.report"  # not imported before
        namespace = {}
        exec("from sitegame import *", namespace)
        for name, module in sitegame._SUBMODULE_OF.items():
            value = getattr(importlib.import_module(f"sitegame.{module}"), name)
            assert getattr(sitegame, name) is value, name
            assert namespace[name] is value, name
        assert set(namespace) - {"__builtins__"} == set(sitegame.__all__)
        assert set(sitegame.__all__) <= set(dir(sitegame))
        solvers = importlib.import_module("sitegame.solvers")
        assert sitegame.DEFAULT_TOLERANCE is solvers.DEFAULT_TOLERANCE
        assert callable(sitegame.payoff) and sitegame.tensor.build_tensor is sitegame.build_tensor
        """
    )


def test_unknown_attribute_raises_attribute_error():
    out = run_code(
        """
        import sitegame
        try:
            sitegame.no_such_name
        except AttributeError as exc:
            print(exc)
        try:
            from sitegame import no_such_name
        except ImportError as exc:
            print(type(exc).__name__)
        """
    )
    assert out == "module 'sitegame' has no attribute 'no_such_name'\nImportError\n"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(tmp_path, given, expected):
    # Importing the module leaves the environment alone, so a process that
    # imports it as a library (and the children it starts) keeps its setting.
    scenario_path, _ = sitegame.write_fixtures(tmp_path)
    env = None if given is None else {"OPENBLAS_NUM_THREADS": given}
    out = run_code(
        f"""
        import contextlib, io, os, sys
        from sitegame.cli import main
        print(os.environ.get("OPENBLAS_NUM_THREADS"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["validate", {str(scenario_path)!r}]) == 0
        print(os.environ["OPENBLAS_NUM_THREADS"], "numpy" in sys.modules)
        """,
        env=env,
    )
    assert out == f"{given}\n{expected} False\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_cli_process_runs_no_blas_worker_thread(tmp_path):
    scenario_path, _ = sitegame.write_fixtures(tmp_path)
    out = run_code(
        f"""
        import contextlib, io, os
        from sitegame.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tensor", {str(scenario_path)!r}]) == 0
        print(len(os.listdir("/proc/self/task")))
        """
    )
    assert out == "1\n"


def _imported_modules(importtime_log):
    """Module names listed by ``python -X importtime``."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines() if line.startswith("import time:")}


# `solve` runs on the fixture tensor: a tensor document needs neither the
# scenario model, nor the payoff kernel, nor the site checks. `--version` and
# `--help` read no document.
@pytest.mark.parametrize(
    "command, not_loaded",
    [
        ("validate", {"numpy", "sitegame.payoff", "sitegame.tensor", "sitegame.solvers", "sitegame.report"}),
        ("tensor", {"sitegame.solvers", "sitegame.report"}),
        ("solve", {"sitegame.payoff"}),
        ("--version", {"json", "numpy"}),
        ("--help", {"json", "numpy"}),
    ],
)
def test_command_loads_only_what_it_runs(tmp_path, command, not_loaded):
    scenario_path, tensor_path = map(str, sitegame.write_fixtures(tmp_path))
    files = {"validate": [scenario_path], "tensor": [scenario_path], "solve": [tensor_path]}.get(command, [])
    result = run_python("-X", "importtime", "-m", "sitegame", command, *files)
    assert result.returncode == 0, result.stderr
    loaded = _imported_modules(result.stderr)
    assert "sitegame.cli" in loaded
    # A command loads the document reader if it reads a file, and the
    # scenario model if that file is a scenario.
    assert ("sitegame.document" in loaded) == bool(files)
    assert ("sitegame.scenario" in loaded) == (files == [scenario_path])
    assert not loaded & ({"sitegame.feasibility", "sitegame.fixtures"} | not_loaded)


@pytest.mark.parametrize("command", ["solve", "tensor"])
@pytest.mark.parametrize("document", ["missing", "truncated"])
def test_unreadable_document_exits_before_numpy_loads(tmp_path, command, document):
    # Both commands imported numpy, 60-100 ms, before reading their document.
    _, tensor_path = sitegame.write_fixtures(tmp_path)
    path = tmp_path / f"{document}.json"
    if document == "truncated":
        path.write_text(tensor_path.read_text(encoding="utf-8")[:200], encoding="utf-8")
    result = run_python("-X", "importtime", "-m", "sitegame", command, str(path))
    assert result.returncode == 2
    assert "sitegame.document" in _imported_modules(result.stderr)
    assert "numpy" not in _imported_modules(result.stderr)


def test_document_module_imports_no_numpy_and_no_scenario_model():
    out = run_code(
        """
        import sys
        import sitegame.document
        print("numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("sitegame")))
        """
    )
    assert out == "False ['sitegame', 'sitegame.document']\n"


@pytest.mark.parametrize("argv", [["solve", "{tensor}"], ["--version"]])
def test_run_leaves_the_collector_off_and_the_heap_frozen(tmp_path, argv):
    paths = dict(zip(["{scenario}", "{tensor}"], map(str, sitegame.write_fixtures(tmp_path))))
    out = run_code(
        """
        import contextlib, gc, io
        from sitegame.cli import run
        print(gc.isenabled(), gc.get_freeze_count())
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            run()
        print(gc.isenabled(), gc.get_freeze_count() > 0)
        """,
        *(paths.get(arg, arg) for arg in argv),
    )
    assert out == "True 0\nFalse True\n"


@pytest.mark.parametrize("document, code", [("fixture", 0), ("invalid", 1), ("missing", 2)])
def test_run_returns_the_exit_code_of_main(tmp_path, document, code):
    scenario_path, _ = sitegame.write_fixtures(tmp_path)
    path = {"fixture": scenario_path}.get(document, tmp_path / f"{document}.json")
    if document == "invalid":
        doc = json.loads(scenario_path.read_text())
        doc["players"][0]["emission"] = -1.0
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_code(
        """
        import contextlib, io, sys
        from sitegame.cli import main, run
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = main(sys.argv[1:]), run()
        print(*codes)
        """,
        "solve",
        str(path),
    )
    assert out == f"{code} {code}\n"


@pytest.mark.parametrize("kind", ["scenario", "tensor"])
def test_module_writes_what_main_writes(tmp_path, kind, capsys):
    paths = dict(zip(["scenario", "tensor"], sitegame.write_fixtures(tmp_path)))
    argv = ["solve", str(paths[kind]), "--format", "json"]
    assert main(argv) == 0
    result = subprocess.run(
        [sys.executable, "-m", "sitegame", *argv], capture_output=True, env={**os.environ, "PYTHONPATH": SRC}
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, capsys.readouterr().out.encode(), b"")


# Shapes (players, sites, objects) of a small and a larger scenario: 4 and
# 625 profiles, 4 and 20 candidate sites.
_SMALL, _LARGE = (2, 2, 3), (4, 5, 40)
# `json.dumps(..., indent=2)` leaves a cycle of closures per call (about 40
# objects on CPython 3.11), and `tensor --explain` makes one call per site.
_GARBAGE_PER_EXPLAINED_SITE = 50


def test_cyclic_garbage_of_main_does_not_grow_with_the_game(tmp_path):
    # With the collector off for the whole run, what main leaves in cycles
    # stays in memory until exit, so it must not scale with the input.
    paths = []
    for shape in (_SMALL, _LARGE):
        path = tmp_path / f"{shape}.json"
        path.write_text(sitegame.dumps_scenario(seeded_scenario(*shape)), encoding="utf-8")
        paths.append(str(path))
    commands = [["solve"], ["solve", "--format", "json"], ["solve", "--pairwise-band"], ["tensor"], ["tensor", "--explain"]]
    out = run_code(
        """
        import contextlib, gc, io, json, sys
        from sitegame.cli import main
        commands, paths = json.loads(sys.argv[1]), sys.argv[2:]
        gc.disable()
        garbage = {}
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                main([*command, paths[0]])  # imports what the command runs
                gc.collect()
                for path in paths:
                    main([*command, path])
                    garbage.setdefault(" ".join(command), []).append(gc.collect())
        print(json.dumps(garbage))
        """,
        json.dumps(commands),
        *paths,
    )
    garbage = json.loads(out)
    for command, (small, large) in garbage.items():
        if command != "tensor --explain":
            assert large <= small, (command, garbage)
    for (players, sites, _), tensor, explain in zip((_SMALL, _LARGE), garbage["tensor"], garbage["tensor --explain"]):
        assert explain - tensor <= _GARBAGE_PER_EXPLAINED_SITE * players * sites, garbage
