"""numpy is confined to the band: ``audit`` is the only module that imports it.

The ladder band and the algebra residuals are the one longdouble array
computation, and they live in ``audit``.  Everything else is scalar: the
dressing at one point is ``math``, a state lists its amplitudes by
occupation pattern and every gate is a few complex products.  This guard
keeps numpy, and with it dense cutoff**2 and cutoff**4 vectors, from coming
back into any other module.  Dense operators and vectors live only in the
test oracle (``tests/oracle.py``).  The scalar layer (``qnumber``,
``fockspace``, ``qubits`` and ``gates``) imports nothing from ``audit`` either:
no value it makes is longdouble, so none of its checks needs the audit's.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdgates"


def imported_modules(source):
    """Every module an ``import`` or ``from ... import`` names, at any depth
    of the module, including imports inside functions; a relative one keeps
    its leading dots (``.qnumber``), so it is never taken for numpy."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


SCALAR_MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "audit.py")


@pytest.mark.parametrize("module", SCALAR_MODULES)
def test_module_imports_no_numpy(module):
    imported = list(imported_modules((PACKAGE / module).read_text()))
    assert imported, "the parser found no imports at all"
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("module", ["qnumber.py", "fockspace.py", "qubits.py", "gates.py"])
def test_scalar_layer_imports_nothing_from_audit(module):
    # gates used to import audit, and with it numpy, for one float64 check
    imported = list(imported_modules((PACKAGE / module).read_text()))
    assert [name for name in imported if name in (".audit", "qdgates.audit")] == []


def test_the_guard_sees_numpy_imports():
    source = "import math\nimport numpy as np\ndef f():\n    from numpy.linalg import norm\n"
    assert list(imported_modules(source)) == ["math", "numpy", "numpy.linalg"]
    assert list(imported_modules("from . import numpy\nfrom .audit import x\n")) == [".", ".audit"]
