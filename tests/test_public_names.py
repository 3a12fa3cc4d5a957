"""Every public name is used inside the package or is a named library entry point.

A name in ``qdgates.__all__`` that no package module loads, as an AST ``Name``
or ``Attribute``, has callers only in tests and readers.  Such code stays in
``src`` only if it is listed in :data:`ENTRY_POINTS` with the reason it is
kept.  ``__init__`` is not counted: it only imports the names and lists them.
This guard keeps unused public functions out of ``src``, and keeps the list
short: a name that the package starts to call has to leave it.
"""

import ast
from pathlib import Path

import pytest

import qdgates

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdgates"

# The public names no module of the package uses, each with the reason it stays.
ENTRY_POINTS = (
    ("apply_not", "the paper's NOT gate on a qubit state"),
    ("apply_hadamard", "the paper's Hadamard gate on a qubit state"),
    ("apply_phase_shift", "the paper's phase-shift gate on a qubit state"),
    ("apply_cnot", "the paper's CNOT gate on a two-qubit state"),
    ("vacuum", "the empty oscillator pair, the first state a user builds"),
    ("jm_state", "the paper's angular-momentum states |j, m> on an oscillator pair"),
    ("qubit_state", "the paper's single-qubit basis states |0> and |1>"),
    ("ladder_band", "the nonzero entries of a_q and N at one point, for a reader's own products"),
    ("q_factorial", "the deformed factorial that acceptance criterion 10 checks"),
    ("parse_report", "reads back a report that serialize wrote"),
)


def loaded_names(source):
    """Every name a module loads: each ``Name`` read and each ``Attribute`` read
    (``module.name``), at any depth.  Definitions, imports and assignment
    targets load nothing."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


LOADED = {
    name
    for path in PACKAGE.glob("*.py")
    if path.name != "__init__.py"
    for name in loaded_names(path.read_text())
}
ENTRY_NAMES = [name for name, _ in ENTRY_POINTS]


@pytest.mark.parametrize("name", qdgates.__all__)
def test_public_name_is_used_in_the_package_or_an_entry_point(name):
    assert name in LOADED or name in ENTRY_NAMES, (
        f"qdgates.{name} is used by no package module; "
        f"drop it or list it in ENTRY_POINTS with a reason"
    )


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_entry_point_is_public_and_unused_in_the_package(name):
    assert name in qdgates.__all__
    assert name not in LOADED, f"the package uses {name}; it needs no entry in ENTRY_POINTS"


def test_the_guard_sees_loads_only():
    source = (
        "from .audit import unused\n"
        "def defined(x):\n"
        "    stored = helper(x)\n"
        "    return module.attribute\n"
    )
    assert set(loaded_names(source)) == {"helper", "x", "module", "attribute"}
