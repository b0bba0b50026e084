"""The independent verifier stays independent: no construction module
imports `apinc.oracle`, and the oracle builds on nothing of apinc but
its errors and progressions.  numpy is the only third-party runtime
dependency: no module imports scipy."""

import ast
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


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_imports_scipy(module):
    assert not any(m.split(".")[0] == "scipy" for m in imported_modules(module))
