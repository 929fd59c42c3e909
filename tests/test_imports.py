"""genflow depends on NumPy alone: every absolute import in ``src/genflow``
names the standard library, NumPy or genflow itself."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "genflow"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "genflow"}
MODULES = sorted(SRC.rglob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Absolute imports whose top-level name is not allowed, sorted."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return sorted(n for n in names if n.split(".")[0] not in ALLOWED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_imports_only_numpy_and_stdlib(path):
    foreign = foreign_imports(path.read_text())
    assert not foreign, f"{path.name} imports {foreign}; genflow needs NumPy alone"


def test_guard_sees_a_foreign_import():
    assert foreign_imports("import os\nfrom scipy.linalg import solve_triangular\n"
                           "from . import base\nimport numpy.linalg\n") == ["scipy.linalg"]
