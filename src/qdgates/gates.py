"""Qubit gate actions on oscillator-pair states and realizability checks.

Gates are defined on (possibly scaled) basis states and extended linearly.
A deformed gate differs from the plain one only by the common scalar the
dressed basis vectors carry; when comparing against standard outputs, that
scalar is factored out and outputs are compared by proportionality.  The
single-state gates rebuild their outputs from the dressed-state
constructors.  The CNOT truth table, which the sweep evaluates at every
grid point, needs no state vectors: each of its rows maps one argument-1
amplitude to another (see :func:`cnot_truth_table`).  The realizability
conditions are closed forms too: the NOT condition is the distance of
psi1/psi2 from 1, and the CNOT condition is the sign of one radicand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audit import passes
from .fockspace import FunctionChoice, RadicandError, TruncatedFockSpace
from .qnumber import DeformationParam
from .qubits import (
    OscillatorPairState,
    TwoQubitState,
    _dressed_amplitude,
    deformed_qubit_state,
    pair_index,
    quad_index,
    two_qubit_state,
)

_SQRT2 = math.sqrt(2.0)


class Gate(Enum):
    NOT = "not"
    HADAMARD = "hadamard"
    PHASE = "phase"
    CNOT = "cnot"


@dataclass(frozen=True)
class GateConditionReport:
    """Outcome of one gate-realizability condition at one grid point."""

    gate: Gate
    s: float
    choice: FunctionChoice
    residual: float
    tolerance: float
    realizable: bool


def _qubit_components(state: OscillatorPairState) -> tuple[complex, complex]:
    """Amplitudes on the down/up patterns; rejects support anywhere else."""
    space = state.space
    idx_down = pair_index(space, 0, 1)
    idx_up = pair_index(space, 1, 0)
    rest = np.delete(state.amplitudes, [idx_down, idx_up])
    if np.any(rest != 0):
        raise ValueError("state has support outside the qubit occupations (1,0)/(0,1)")
    return complex(state.amplitudes[idx_down]), complex(state.amplitudes[idx_up])


def _require_deformed_args(p, choice) -> None:
    if p is None or choice is None:
        raise ValueError("deformed mode needs both a DeformationParam and a FunctionChoice")


def apply_not(
    state: OscillatorPairState,
    deformed: bool = False,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> OscillatorPairState:
    """Exchange the up and down components.

    In deformed mode the coefficients are re-expressed in the dressed basis
    and the flipped state is rebuilt through the dressed constructors, i.e.
    the creation-operator exponents are interchanged.
    """
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    out = np.zeros_like(state.amplitudes)
    if not deformed:
        out[pair_index(space, 1, 0)] = amp_down
        out[pair_index(space, 0, 1)] = amp_up
        return OscillatorPairState(space, out)
    _require_deformed_args(p, choice)
    basis_up = deformed_qubit_state(1, p, choice, space)
    basis_down = deformed_qubit_state(0, p, choice, space)
    pref_up = basis_up.amplitudes[pair_index(space, 1, 0)]
    pref_down = basis_down.amplitudes[pair_index(space, 0, 1)]
    out = (amp_up / pref_up) * basis_down.amplitudes + (amp_down / pref_down) * basis_up.amplitudes
    return OscillatorPairState(space, out)


def check_not_condition(
    p: DeformationParam, choice: FunctionChoice, tol: float
) -> GateConditionReport:
    """Eigenvalue condition under which the deformed flip is indistinguishable
    from the plain one.

    At both qubit occupations the condition pins the ratio psi1/psi2 to a
    target that is exactly 1 for every q (1/1 at n_hat = 0, -1/-1 at
    n_hat = 1), so the residual is ``|psi1/psi2 - 1|``: the verdict is
    invariant under a common rescaling of the pair.  The flip, superposition
    and phase gates share this condition.
    """
    residual = abs(choice.psi1 / choice.psi2 - 1.0)
    return GateConditionReport(Gate.NOT, p.s, choice, residual, float(tol), passes(residual, tol))


def apply_hadamard(
    state: OscillatorPairState,
    deformed: bool = False,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> OscillatorPairState:
    """Send each basis component x to ((-1)**x |x> + |1-x>) / sqrt(2).

    The 1/sqrt(2) is applied so outputs of basis inputs stay unit norm.  In
    deformed mode the up vector is dressed by (psi1, psi2) and the down
    vector by (psi3, psi4), each oscillator carrying its own dressing.
    """
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    if not deformed:
        out = np.zeros_like(state.amplitudes)
        out[pair_index(space, 0, 1)] = (amp_down + amp_up) / _SQRT2
        out[pair_index(space, 1, 0)] = (amp_down - amp_up) / _SQRT2
        return OscillatorPairState(space, out)
    _require_deformed_args(p, choice)
    basis_up = deformed_qubit_state(1, p, choice, space).amplitudes
    # the down vector's second oscillator carries its own (psi3, psi4) dressing
    # at n = 1, which is the same argument-1 value the shifted dressing gives
    own = FunctionChoice(psi1=choice.psi3, psi2=choice.psi4)
    basis_down = deformed_qubit_state(0, p, own, space).amplitudes
    c_up = amp_up / basis_up[pair_index(space, 1, 0)]
    c_down = amp_down / basis_down[pair_index(space, 0, 1)]
    out = (c_down * (basis_down + basis_up) + c_up * (basis_down - basis_up)) / _SQRT2
    return OscillatorPairState(space, out)


def apply_phase_shift(state: OscillatorPairState, theta: float) -> OscillatorPairState:
    """Multiply the up component by e**(i*theta); the down component is untouched."""
    if not math.isfinite(theta):
        raise ValueError(f"phase angle must be finite, got {theta!r}")
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    out = np.zeros_like(state.amplitudes)
    out[pair_index(space, 0, 1)] = amp_down
    out[pair_index(space, 1, 0)] = cmath.exp(1j * theta) * amp_up
    return OscillatorPairState(space, out)


_QUBIT_PATTERNS = {
    (0, 0): (0, 1, 0, 1),
    (0, 1): (0, 1, 1, 0),
    (1, 0): (1, 0, 0, 1),
    (1, 1): (1, 0, 1, 0),
}


def _basis_component(state: TwoQubitState) -> tuple[tuple[int, int], complex]:
    """The (x, y) pattern a scaled basis state occupies, plus its amplitude."""
    space = state.space
    nz = np.nonzero(state.amplitudes)[0]
    if len(nz) != 1:
        raise ValueError("two-qubit gate input must be a scaled product basis state")
    idx = int(nz[0])
    for bits, pattern in _QUBIT_PATTERNS.items():
        if idx == quad_index(space, *pattern):
            return bits, complex(state.amplitudes[idx])
    raise ValueError("two-qubit gate input has support outside the qubit patterns")


def apply_cnot(
    state: TwoQubitState,
    deformed: bool = False,
    p: DeformationParam | None = None,
    choice_a: FunctionChoice | None = None,
    choice_b: FunctionChoice | None = None,
) -> TwoQubitState:
    """Flip the target qubit exactly when the control is up."""
    space = state.space
    (x, y), amp = _basis_component(state)
    if x == 0:
        return TwoQubitState(space, state.amplitudes.copy())
    if not deformed:
        out = np.zeros_like(state.amplitudes)
        out[quad_index(space, *_QUBIT_PATTERNS[(x, 1 - y)])] = amp
        return TwoQubitState(space, out)
    _require_deformed_args(p, choice_a)
    _require_deformed_args(p, choice_b)
    reference_in = two_qubit_state(x, y, p, choice_a, choice_b, space)
    reference_out = two_qubit_state(x, 1 - y, p, choice_a, choice_b, space)
    scale = amp / reference_in.amplitudes[quad_index(space, *_QUBIT_PATTERNS[(x, y)])]
    return TwoQubitState(space, scale * reference_out.amplitudes)


@dataclass(frozen=True)
class TruthTableRow:
    """One transition of the controlled flip, with the output measured
    against the expected undeformed basis element."""

    input_bits: tuple[int, int]
    expected_bits: tuple[int, int]
    amplitude: complex
    off_support: float


def cnot_truth_table(
    deformed: bool = False,
    p: DeformationParam | None = None,
    choice_a: FunctionChoice | None = None,
    choice_b: FunctionChoice | None = None,
    space: TruncatedFockSpace | None = None,
) -> list[TruthTableRow]:
    """Run all four basis transitions of the controlled flip.

    In deformed mode every row picks up the same scalar relative to the
    plain table, so the amplitudes are constant across rows once the gate is
    realizable; the caller inspects amplitudes (undeformed: exactly 1) or
    their spread (deformed).

    Every input and output is one amplitude on one basis pattern, so the
    rows are formed from that amplitude alone, in the floating-point steps of
    :func:`apply_cnot` on the dressed states; ``space`` does not change them.
    """
    if deformed:
        _require_deformed_args(p, choice_a)
        _require_deformed_args(p, choice_b)
        # both labels of a pair share the argument-1 dressing
        amp = _dressed_amplitude(p, choice_a.psi1, choice_a.psi2)
        amp *= _dressed_amplitude(p, choice_b.beta1, choice_b.beta2)
    else:
        amp = 1.0
    if amp == 0:  # the input state would have no support at all
        raise ValueError("two-qubit gate input must be a scaled product basis state")
    amp = complex(amp)
    rows = []
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if x == 0:
            amplitude, off = amp, 0.0
        else:
            # apply_cnot rescales the flipped reference by the input over its
            # own reference, a complex128 quotient that is not always exactly 1
            scale = amp / np.complex128(amp)
            amplitude, off = complex(scale * amp), float(abs(scale * 0j))
        rows.append(TruthTableRow((x, y), (x, y ^ x), amplitude, off))
    return rows


def check_cnot_condition(
    p: DeformationParam, beta1: float, beta2: float, tol: float
) -> GateConditionReport:
    """Both sides of the target-swap condition at the qubit occupations.

    With the swapped target carrying k_hat = k, both sides at either control
    value k are the square root of the argument-1 radicand
    ``(q*beta1 - q**-1*beta2) / (q - 1/q)`` times zeroth powers, so the
    residual is exactly 0; what the check tests is that this radicand is not
    negative (a negative one raises :class:`RadicandError`).  Where ``exp(s)``
    rounds to 1 (s below about 1.1e-16) the denominator is 0 and the check
    raises a ValueError naming s.
    """
    if not (beta1 > 0 and beta2 > 0):
        raise ValueError(f"beta1 and beta2 must be positive, got {beta1!r}, {beta2!r}")
    q = p.q
    if q == 1.0:
        raise ValueError(f"q = exp(s) rounds to 1 at s={p.s!r}, so q - 1/q is 0")
    if (q * beta1 - q**-1 * beta2) / (q - 1.0 / q) < 0:
        raise RadicandError(
            f"negative radicand in swap-condition factor at argument 1 "
            f"with beta1={beta1}, beta2={beta2}"
        )
    residual = 0.0
    choice = FunctionChoice(beta1=beta1, beta2=beta2)
    return GateConditionReport(Gate.CNOT, p.s, choice, residual, float(tol), passes(residual, tol))
