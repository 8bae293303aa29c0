"""The structural commands run without numpy; only solving loads it."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

# Modules whose realizations are numpy arrays by design.
NUMPY_MODULES = {"generate"}


def _run_python(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _module_level_imports(tree: ast.Module):
    """Import statements that run when the module is imported: top-level
    ones and those in top-level if/try blocks, except `if TYPE_CHECKING:`."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending += node.body
            pending += node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            pending += [stmt for handler in node.handlers for stmt in handler.body]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((SRC / "pidcheck").glob("*.py")) if p.stem not in NUMPY_MODULES],
    ids=lambda p: p.stem,
)
def test_no_module_level_numpy_import(path):
    for node in _module_level_imports(ast.parse(path.read_text())):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        assert not any(n == "numpy" or n.startswith("numpy.") for n in names), (
            f"{path.name}:{node.lineno} imports numpy at module level"
        )


@pytest.mark.parametrize("path", sorted((SRC / "pidcheck").glob("*.py")), ids=lambda p: p.stem)
def test_no_dataclasses_import(path):
    # `dataclasses` loads `inspect` and builds each class through `exec`,
    # which every fresh CLI process would pay for at start-up.
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            assert "dataclasses" not in names, f"{path.name}:{node.lineno} imports dataclasses"


def _structural_argvs(path: pathlib.Path) -> list[list[str]]:
    doc = json.loads(path.read_text())
    decision = next(n["id"] for n in doc["nodes"] if n["kind"] == "decision")
    chance = next(n["id"] for n in doc["nodes"] if n["kind"] == "chance")
    p = str(path)
    argvs = [
        ["validate", p], ["order", p], ["schemas", p, "--limit", "3"], ["check", p],
        ["relevant", p, "-d", decision], ["required", p, "-d", decision],
        ["significant", p, "-a", chance, "-d", decision], ["suggest", p],
        ["export-dot", p, "--annotate"], ["baselines", p, "-d", decision],
    ]
    return argvs + [argv + ["--json"] for argv in argvs]


@pytest.mark.parametrize("name", ["fig4", "fig8"])
def test_structural_commands_leave_numpy_unloaded(name):
    path = FIXTURES / f"{name}.pid"
    assert "realization" in json.loads(path.read_text())
    code = f"""
import contextlib, io, json, sys
from pidcheck.cli import main
out = []
for argv in {_structural_argvs(path)!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    out.append([argv, rc, "numpy" in sys.modules])
for argv in (["solve", {str(path)!r}], ["fuzz", {str(path)!r}, "--trials", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        out.append([argv, main(argv), "numpy" in sys.modules])
print(json.dumps(out))
"""
    results = json.loads(_run_python(code))
    *structural, solve, fuzz = results
    for argv, rc, numpy_loaded in structural:
        # `significant` on a compatible pair is a usage error (exit 1).
        assert rc in ((0, 1, 2) if argv[0] == "significant" else (0, 2)), argv
        assert not numpy_loaded, f"{argv} loaded numpy"
    assert solve[1:] == [0, True]
    assert fuzz[1:] == [0, True]


def test_importing_cli_loads_every_traced_module():
    code = """
import sys
import pidcheck.cli
print(sorted(m for m in sys.modules if m.startswith("pidcheck")))
print("numpy" in sys.modules)
"""
    modules, numpy_loaded = _run_python(code).splitlines()
    for name in ("model", "ordering", "dsep", "analysis", "oracle"):
        assert f"'pidcheck.{name}'" in modules
    assert numpy_loaded == "False"


def test_importing_cli_leaves_the_dataclass_machinery_unloaded():
    code = """
import sys
import pidcheck.cli
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""
    assert _run_python(code).strip() == "[]"


def test_importing_cli_does_not_build_the_parser():
    code = "import pidcheck.cli\nprint(pidcheck.cli.build_parser.cache_info().currsize)\n"
    assert _run_python(code).strip() == "0"


def test_benchmark_tracer_finds_every_traced_name():
    # perfbench/spans.py wraps functions and methods of the package by name;
    # a rename or a deletion must fail here, not only in a traced benchmark run.
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import spans
spans.install(spans.Tracer())
print("installed")
"""
    assert _run_python(code).strip() == "installed"
