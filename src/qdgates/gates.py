"""Qubit gate actions on oscillator-pair states and realizability checks.

A deformed gate acts on the dressed basis vectors as the plain gate acts on
the plain ones; a gate is deformed exactly when it is given a dressing (p and
every choice).  Each basis vector is one amplitude at one occupation
pattern: 1.0 for a plain gate, the argument-1 dressing for a deformed one.
Every gate takes one path: each input component becomes a coefficient on
its basis vector (:func:`_coefficient`), and the output is the same
combination of the gate's images of those vectors.  The CNOT truth table
needs no state vectors: its flipped rows take the same step on the one
two-qubit amplitude.  The realizability conditions are closed forms: the
NOT condition is the distance of psi1/psi2 from 1, and the CNOT condition
is the sign of one radicand.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audit import passes
from .fockspace import FunctionChoice, RadicandError
from .qnumber import DeformationParam
from .qubits import (
    OscillatorPairState,
    TwoQubitState,
    _basis_vector,
    _dressed_amplitude,
    _two_qubit_amplitude,
    pair_index,
    quad_index,
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


def _is_deformed(p, *choices) -> bool:
    """Whether a gate is dressed: given p and every choice it is, given none
    of them it is plain, and given only some of them it raises."""
    missing = [arg is None for arg in (p, *choices)]
    if any(missing) and not all(missing):
        raise ValueError("deformed mode needs both a DeformationParam and a FunctionChoice")
    return not any(missing)


def _coefficient(amp: complex, amplitude) -> np.complex128:
    """``amp`` over the amplitude of its basis vector, as a complex128 quotient.

    For ``amp == amplitude`` that quotient is not always exactly 1, where
    Python's would be; report bytes depend on it until the schema changes.
    """
    if amplitude == 0:
        raise ValueError("the dressed basis vector has amplitude 0 (zero dressing at argument 1)")
    return amp / np.complex128(amplitude)


def _extend(state: OscillatorPairState, a_down: float, a_up: float, images) -> np.ndarray:
    """The gate whose images of the down and up basis vectors, of amplitudes
    ``a_down`` and ``a_up``, are ``images(down, up)``, extended linearly."""
    space = state.space
    image_down, image_up = images(
        _basis_vector(space, (0, 1), a_down), _basis_vector(space, (1, 0), a_up)
    )
    amp_down, amp_up = _qubit_components(state)
    c_up, c_down = _coefficient(amp_up, a_up), _coefficient(amp_down, a_down)
    return c_down * image_down + c_up * image_up


def apply_not(
    state: OscillatorPairState,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> OscillatorPairState:
    """Exchange the up and down components.

    The deformed flip interchanges the creation-operator exponents: it sends
    each dressed basis vector to the other, which carries the same
    (psi1, psi2) dressing.
    """
    a = 1.0
    if _is_deformed(p, choice):
        a = _dressed_amplitude(p, choice.psi1, choice.psi2)
    return OscillatorPairState(state.space, _extend(state, a, a, lambda down, up: (up, down)))


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
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> OscillatorPairState:
    """Send each basis component x to ((-1)**x |x> + |1-x>) / sqrt(2).

    The 1/sqrt(2) is applied so outputs of basis inputs stay unit norm.  Given
    a dressing, the up vector is dressed by (psi1, psi2) and the down
    vector by (psi3, psi4), each oscillator carrying its own dressing.
    """
    a_up = a_down = 1.0
    if _is_deformed(p, choice):
        a_up = _dressed_amplitude(p, choice.psi1, choice.psi2)
        a_down = _dressed_amplitude(p, choice.psi3, choice.psi4)
    out = _extend(state, a_down, a_up, lambda down, up: (down + up, down - up)) / _SQRT2
    return OscillatorPairState(state.space, out)


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


def _cnot_amplitude(p, choice_a, choice_b) -> float:
    """Amplitude of the two-qubit basis vectors the controlled flip acts on."""
    if _is_deformed(p, choice_a, choice_b):
        return _two_qubit_amplitude(p, choice_a, choice_b)
    return 1.0


def apply_cnot(
    state: TwoQubitState,
    p: DeformationParam | None = None,
    choice_a: FunctionChoice | None = None,
    choice_b: FunctionChoice | None = None,
) -> TwoQubitState:
    """Flip the target qubit exactly when the control is up; a control-down
    input comes back unchanged, after the same argument and dressing checks."""
    (x, y), amp = _basis_component(state)
    amplitude = _cnot_amplitude(p, choice_a, choice_b)
    coefficient = _coefficient(amp, amplitude)
    if x == 0:
        return TwoQubitState(state.space, state.amplitudes.copy())
    image = _basis_vector(state.space, _QUBIT_PATTERNS[(x, 1 - y)], amplitude)
    return TwoQubitState(state.space, coefficient * image)


@dataclass(frozen=True)
class TruthTableRow:
    """One transition of the controlled flip, with the output measured
    against the expected undeformed basis element."""

    input_bits: tuple[int, int]
    expected_bits: tuple[int, int]
    amplitude: complex
    off_support: float


def cnot_truth_table(
    p: DeformationParam | None = None,
    choice_a: FunctionChoice | None = None,
    choice_b: FunctionChoice | None = None,
) -> list[TruthTableRow]:
    """Run all four basis transitions of the controlled flip.

    Given a dressing, every row picks up the same scalar relative to the
    plain table, so the amplitudes are constant across rows once the gate is
    realizable; the caller inspects amplitudes (undeformed: exactly 1) or
    their spread (deformed).

    Every input and output is one amplitude on one basis pattern, so the rows
    take :func:`apply_cnot`'s step on that amplitude alone.
    """
    amp = complex(_cnot_amplitude(p, choice_a, choice_b))
    # the flipped vector at its own pattern and at any other
    on, off = _coefficient(amp, amp) * np.array([amp, 0j])
    by_control = {0: (amp, 0.0), 1: (complex(on), float(abs(off)))}
    return [
        TruthTableRow((x, y), (x, y ^ x), *by_control[x])
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


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
