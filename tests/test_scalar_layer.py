"""The qubit and gate layer is scalar arithmetic on occupation-pattern maps.

A state lists its amplitudes by occupation pattern and every gate is a few
complex products, so neither module needs numpy; this guard keeps dense
cutoff**2 and cutoff**4 vectors from coming back into them.  Dense vectors
live only in the test oracle (``tests/oracle.py``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdgates"


def imported_modules(source):
    """Every module an ``import`` or absolute ``from ... import`` names,
    at any depth of the module, including imports inside functions."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", ["qubits.py", "gates.py"])
def test_module_imports_no_numpy(module):
    imported = list(imported_modules((PACKAGE / module).read_text()))
    assert imported, "the parser found no imports at all"
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


def test_the_guard_sees_numpy_imports():
    source = "import math\nimport numpy as np\ndef f():\n    from numpy.linalg import norm\n"
    assert list(imported_modules(source)) == ["math", "numpy", "numpy.linalg"]
