"""Two-oscillator qubits built by the boson realization of angular momentum.

A qubit lives in a pair of oscillators carrying exactly one total quantum:
occupation (1, 0) is spin up (label 1), occupation (0, 1) is spin down
(label 0).  General (j, m) states occupy ``(j+m, j-m)``.  Every state built
here is a single scaled basis vector: one amplitude at one occupation
pattern, written by :func:`_basis_vector`.  The amplitude is 1 for the
vacuum, the plain qubits, their products and every ``jm_state`` (the
creation-operator normalization cancels exactly); for the deformed qubits it
is the dressing at argument 1 (see :func:`_dressed_amplitude`), the only
dressing value the single quantum ever meets.  That value is computed with
``math``, so it is the same on every host whatever SIMD kernels numpy picks.
The norm ratio, ``norm_ratio_experiment(p, psi, beta)``, is that amplitude
squared: the same for every label pair and every space.  The dressed
``np.kron`` creation matrices applied to the pair vacuum are kept only as the
test oracle (``tests/test_state_oracle.py``).

Basis ordering over the joint occupations (n1, n2) is row-major and fixed;
four-oscillator states order (a1, a2, b1, b2) row-major, which is exactly
the Kronecker product of two pair states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    FunctionChoice,
    FunctionFamily,
    POWER_OF_Q,
    RadicandError,
    TruncatedFockSpace,
)
from .qnumber import DeformationParam

# Qubit work occupies levels 0..1 only; cutoff 4 leaves margin.
QUBIT_CUTOFF = 4


def pair_index(space: TruncatedFockSpace, n1: int, n2: int) -> int:
    return n1 * space.cutoff + n2


def quad_index(space: TruncatedFockSpace, n_a1: int, n_a2: int, n_b1: int, n_b2: int) -> int:
    d = space.cutoff
    return ((n_a1 * d + n_a2) * d + n_b1) * d + n_b2


@dataclass(frozen=True)
class _OscillatorState:
    """Amplitude vector over the joint occupations of ``OSCILLATORS`` oscillators."""

    OSCILLATORS = 0

    space: TruncatedFockSpace
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "_OscillatorState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Occupation pattern of each nonzero amplitude, in basis order."""
        shape = (self.space.cutoff,) * self.OSCILLATORS
        occupations = np.unravel_index(np.flatnonzero(self.amplitudes), shape)
        return tuple(map(tuple, np.transpose(occupations).tolist()))

    def nonzero_triples(self) -> list[tuple[int, float, float]]:
        """(basis index, real part, imaginary part) for each nonzero amplitude."""
        return [
            (int(i), float(self.amplitudes[i].real), float(self.amplitudes[i].imag))
            for i in np.flatnonzero(self.amplitudes)
        ]


class OscillatorPairState(_OscillatorState):
    """Amplitude vector over the joint occupations of one oscillator pair."""

    OSCILLATORS = 2


class TwoQubitState(_OscillatorState):
    """Amplitude vector over the joint occupations of two oscillator pairs."""

    OSCILLATORS = 4


def _check_labels(*labels: int) -> None:
    for x in labels:
        if x not in (0, 1):
            raise ValueError(f"qubit label must be 0 or 1, got {x!r}")


def _basis_vector(space: TruncatedFockSpace, occupations: tuple[int, ...], amplitude) -> np.ndarray:
    """``amplitude`` at the basis vector of ``occupations``, one per oscillator."""
    shape = (space.cutoff,) * len(occupations)
    amp = np.zeros(math.prod(shape), dtype=complex)
    amp[np.ravel_multi_index(occupations, shape)] = amplitude
    return amp


def vacuum(space: TruncatedFockSpace) -> OscillatorPairState:
    """Both oscillators empty; unit amplitude on (0, 0)."""
    return OscillatorPairState(space, _basis_vector(space, (0, 0), 1.0))


def qubit_state(x: int, space: TruncatedFockSpace) -> OscillatorPairState:
    """Basis qubit: occupation (1, 0) for x = 1, (0, 1) for x = 0."""
    _check_labels(x)
    return OscillatorPairState(space, _basis_vector(space, (x, 1 - x), 1.0))


def jm_state(j: float, m: float, space: TruncatedFockSpace) -> OscillatorPairState:
    """Unit-norm angular-momentum state on occupations (j+m, j-m)."""
    n1, n2 = j + m, j - m
    for name, value in (("j+m", n1), ("j-m", n2)):
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    n1, n2 = int(round(n1)), int(round(n2))
    if j < 0 or n1 < 0 or n2 < 0:
        raise ValueError(f"need j >= 0 and |m| <= j, got j={j}, m={m}")
    if n1 >= space.cutoff or n2 >= space.cutoff:
        raise ValueError(f"occupations ({n1}, {n2}) exceed the cutoff {space.cutoff}")
    return OscillatorPairState(space, _basis_vector(space, (n1, n2), 1.0))


def _dressed_amplitude(p: DeformationParam, g1: float, g2: float) -> float:
    """Amplitude of a deformed basis qubit dressed by ``(g1, g2)``.

    The single quantum sits on a level whose dressing argument is 1 in both
    constructions: the first oscillator's own dressing at n = 1 for x = 1,
    the second oscillator's shifted dressing ``1 - n`` at the first
    oscillator's n = 0 for x = 0.  No other level carries weight, so no
    other level is evaluated; a negative radicand at argument 1 still raises.
    The value is the :mod:`fockspace` dressing formula at n = 1, in the same
    floating-point steps, evaluated with ``math``.
    """
    s = p.s
    sinh_s = math.sinh(s)
    if g1 == g2:
        r = g1 * sinh_s / sinh_s
    else:
        r = (math.exp(s) * g1 - math.exp(-s) * g2) / (2 * sinh_s)
    if r < 0:
        raise RadicandError(f"negative radicand at level n=1 with psi1={g1}, psi2={g2}")
    return math.sqrt(r)


def deformed_qubit_state(
    x: int, p: DeformationParam, choice: FunctionChoice, space: TruncatedFockSpace
) -> OscillatorPairState:
    """Deformed basis qubit; same support as ``qubit_state``, rescaled by the dressing."""
    _check_labels(x)
    amplitude = _dressed_amplitude(p, choice.psi1, choice.psi2)
    return OscillatorPairState(space, _basis_vector(space, (x, 1 - x), amplitude))


def _two_qubit_amplitude(
    p: DeformationParam, choice_a: FunctionChoice, choice_b: FunctionChoice
) -> float:
    """Amplitude of a deformed two-qubit basis state, whatever its labels: the
    control's under the psi pair of ``choice_a`` times the target's under the
    beta pair of ``choice_b``."""
    control = _dressed_amplitude(p, choice_a.psi1, choice_a.psi2)
    return control * _dressed_amplitude(p, choice_b.beta1, choice_b.beta2)


def basis_two_qubit_state(x: int, y: int, space: TruncatedFockSpace) -> TwoQubitState:
    """Undeformed product basis state |x>|y> over two oscillator pairs."""
    _check_labels(x, y)
    return TwoQubitState(space, _basis_vector(space, (x, 1 - x, y, 1 - y), 1.0))


def two_qubit_state(
    x: int,
    y: int,
    p: DeformationParam,
    choice_a: FunctionChoice,
    choice_b: FunctionChoice,
    space: TruncatedFockSpace,
) -> TwoQubitState:
    """Deformed product state: control dressed by the psi pair of ``choice_a``,
    target by the beta pair of ``choice_b``."""
    _check_labels(x, y)
    amplitude = _two_qubit_amplitude(p, choice_a, choice_b)
    return TwoQubitState(space, _basis_vector(space, (x, 1 - x, y, 1 - y), amplitude))


@dataclass(frozen=True)
class NormRatioResult:
    """Measured deformed/undeformed squared-norm ratio at one (s, psi, beta),
    with both candidate laws and the one it lies nearer.

    The construction itself decides which law it satisfies; neither
    prediction is privileged here.
    """

    s: float
    psi: float
    beta: float
    measured: float
    prediction_product: float  # psi * beta
    prediction_sqrt: float  # sqrt(psi * beta)
    matched_law: str  # "product" or "sqrt_product"

    def distance_to_matched(self) -> float:
        return min(
            abs(self.measured - self.prediction_product),
            abs(self.measured - self.prediction_sqrt),
        )


def norm_ratio_experiment(p: DeformationParam, psi: float, beta: float) -> NormRatioResult:
    """Squared-norm ratio of a deformed two-qubit basis state to the plain one.

    Both states are one amplitude at the same index and the plain amplitude
    is 1, so the ratio is the square of the deformed amplitude, whatever the
    labels and the space.  A ratio or prediction beyond float64 range raises.
    """
    if not (psi > 0 and beta > 0):
        raise ValueError(f"psi and beta must be positive, got psi={psi!r}, beta={beta!r}")
    # in Python floats an overflow reads inf without a numpy warning
    choice = FunctionChoice(psi1=psi, psi2=psi, beta1=beta, beta2=beta)
    amplitude = _two_qubit_amplitude(p, choice, choice)
    measured = amplitude * amplitude
    product = psi * beta
    if not (math.isfinite(measured) and math.isfinite(product)):
        ratio = np.format_float_scientific(np.longdouble(amplitude) ** 2, precision=3)
        prediction = np.format_float_scientific(np.longdouble(psi) * beta, precision=3)
        raise ValueError(
            f"norm ratio overflows float64: measured {ratio}, product prediction {prediction}"
        )
    sqrt = math.sqrt(product)
    law = "product" if abs(measured - product) <= abs(measured - sqrt) else "sqrt_product"
    return NormRatioResult(p.s, psi, beta, measured, product, sqrt, law)


@dataclass(frozen=True)
class CaseIIOccupation:
    """Deformed occupation eigenvalue implied by one dressing-function value.

    The deformed eigenvalue sits ``ln(psi)/s`` below the plain one, so a
    dressing value of 1 collapses back onto the undeformed bookkeeping.
    """

    n_hat: int
    psi_value: float
    n_prime: float

    def is_undeformed(self) -> bool:
        return self.psi_value == 1.0


def occupation_from_value(n_hat: int, psi_value: float, p: DeformationParam) -> CaseIIOccupation:
    if psi_value <= 0:
        raise ValueError(f"dressing value must be positive, got {psi_value!r}")
    return CaseIIOccupation(n_hat, float(psi_value), n_hat - math.log(psi_value) / p.s)


def occupation_from_exponent(n_hat: int, alpha: float, p: DeformationParam) -> CaseIIOccupation:
    """Occupation for psi = q**alpha; the deformed eigenvalue is exactly n_hat - alpha."""
    return CaseIIOccupation(n_hat, p.q ** alpha, float(n_hat - alpha))


@dataclass(frozen=True)
class CaseIIRow:
    """One deformed basis state with the function choices that pin its
    deformed occupations at the qubit values."""

    state_label: str
    psi_rule: str
    beta_rule: str
    psi_family: FunctionFamily
    beta_family: FunctionFamily
    control: CaseIIOccupation
    target: CaseIIOccupation


def case2_consistency_table(p: DeformationParam) -> list[CaseIIRow]:
    """The four basis states with their consistent deformed bookkeeping.

    A deformed eigenvalue v forces the plain occupation to sit at
    v + ln(psi)/s, so the rows pair psi = q**n_hat with v = 0 and
    psi = q**(n_hat - 1) with v = 1; the smallest plain occupation
    compatible with each row is used.  The plain occupation always exceeds
    the deformed one.
    """

    def rule(target: int) -> str:
        return "q^n_hat" if target == 0 else "q^(n_hat-1)"

    rows = []
    for label in ("00", "01", "10", "11"):
        n_target = int(label[0])
        k_target = int(label[1])
        n_hat = n_target + 1
        k_hat = k_target + 1
        control = occupation_from_exponent(n_hat, n_hat - n_target, p)
        target = occupation_from_exponent(k_hat, k_hat - k_target, p)
        rows.append(
            CaseIIRow(
                state_label=label,
                psi_rule=rule(n_target),
                beta_rule=rule(k_target),
                psi_family=FunctionFamily(POWER_OF_Q, float(n_hat - n_target)),
                beta_family=FunctionFamily(POWER_OF_Q, float(k_hat - k_target)),
                control=control,
                target=target,
            )
        )
    return rows
