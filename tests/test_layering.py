"""The independent verifier stays independent: no construction module
imports `apinc.oracle`, and the oracle builds on nothing of apinc but
its errors and progressions, which build on errors alone.  numpy is the only third-party runtime
dependency: no module imports scipy, and the package import and the
phase channel's commands never load numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "apinc"
CONSTRUCTION = ["progressions", "polyphase", "nil", "gowers", "engine"]


def imported_modules(module):
    """Every absolute module name that src/apinc/<module>.py imports, at
    any depth of its syntax tree."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def apinc_imports(module):
    """Names of the apinc modules that src/apinc/<module>.py imports,
    at any depth of its syntax tree."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("apinc."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(a.name for a in node.names)
            elif node.module and node.module.startswith("apinc."):
                found.add(node.module.split(".")[1])
            elif node.module == "apinc":
                found.update(a.name for a in node.names)
    return found


@pytest.mark.parametrize("module", CONSTRUCTION)
def test_construction_does_not_import_the_verifier(module):
    assert "oracle" not in apinc_imports(module)


def test_verifier_imports_only_errors_and_progressions():
    assert apinc_imports("oracle") <= {"errors", "progressions"}


def test_skeleton_imports_only_errors():
    # the partition skeleton knows no channel: each hands it a `diam` and
    # a `reduce`
    assert apinc_imports("progressions") <= {"errors"}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_scipy(module):
    assert not any(m.split(".")[0] == "scipy" for m in imported_modules(module))


def import_time_modules(module):
    """Every absolute module name that src/apinc/<module>.py imports
    while it is being imported: imports outside any function body."""
    found = set()
    todo = list(ast.parse((SRC / f"{module}.py").read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _numpy(names):
    return {m for m in names if m.split(".")[0] == "numpy"}


# `import apinc, apinc.cli` and the phase channel's commands run only these
@pytest.mark.parametrize("module", ["__init__", "cli", "errors", "progressions", "polyphase"])
def test_phase_channel_modules_never_import_numpy(module):
    assert _numpy(imported_modules(module)) == set()


def test_oracle_imports_numpy_only_where_arrays_are_used():
    assert _numpy(import_time_modules("oracle")) == set()
    assert _numpy(imported_modules("oracle")) == {"numpy"}


COLD_START = """
import sys
import apinc, apinc.cli

out, main = sys.argv[1], apinc.cli.main
assert main(["partition-phase", "--phase", "1/7 n + 0.01 C(n,2)", "--range", "1..300",
             "--eps", "0.1", "--out", out]) == 0
assert main(["verify", "--cert", out]) == 0
print("numpy loaded:", "numpy" in sys.modules)
assert main(["partition-nil", "--manifold", "torus:1", "--seq", "0.001 n", "--fn", "e(x)",
             "--range", "1..50", "--eps", "0.25", "--out", out]) == 0
print("numpy loaded:", "numpy" in sys.modules)
"""


def test_phase_commands_never_load_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "cert.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert run.returncode == 0, run.stderr
    loaded = [line for line in run.stdout.splitlines() if line.startswith("numpy loaded:")]
    assert loaded == ["numpy loaded: False", "numpy loaded: True"]


TRACED = """
import sys
sys.path[:0] = sys.argv[1:3]
import spans
exec(sys.argv[3])

with spans.Tracer():  # imports every traced module not yet loaded
    pass
print([f"{k}.{a}" for k, m in list(sys.modules.items()) if k.startswith("apinc")
       for a, v in vars(m).items() if getattr(v, spans.MARK, False)])
"""


@pytest.mark.parametrize(
    "first, left",
    [
        # workloads imports apinc, apinc.cli and apinc.engine; the tracer nil and oracle
        ("import workloads", "[]"),
        # the tracer imports engine and nil; engine.ap_count alone is bound by
        # name, because perfbench/test_perfbench.py pins that wrapper
        ("import apinc, apinc.cli", "['apinc.engine.ap_count']"),
    ],
    ids=["after-workloads", "after-cold-import"],
)
def test_modules_first_imported_under_the_tracer_keep_no_wrapper(first, left):
    # perfbench's tracer patches each traced module and then imports the
    # next; a module imported on first use that bound a patched name then
    # would keep the tracer's wrapper after the tracer restores the rest
    run = subprocess.run(
        [sys.executable, "-c", TRACED, str(SRC.parent.parent / "perfbench"), str(SRC.parent), first],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == left
