"""Two-oscillator qubits built by the boson realization of angular momentum.

A qubit lives in a pair of oscillators carrying exactly one total quantum:
occupation (1, 0) is spin up (label 1), (0, 1) spin down (label 0), the map
:func:`_occupations`; a (j, m) state occupies ``(j+m, j-m)``.  A state is
``space`` plus its amplitudes on occupation patterns, a mapping in which any
pattern not listed is 0, and every state built here lists one pattern.  Its
amplitude is 1 when plain, as for the vacuum and every ``jm_state`` (the
creation-operator normalization cancels exactly).  A qubit state, like a
gate, is dressed exactly when given a dressing, ``p`` and a ``FunctionChoice``:
one pair is dressed by the choice's psi pair, a two-qubit state's control by
its psi pair and its target by its beta pair.  The amplitude is then the
dressing at argument 1 (:func:`_dressed_amplitude`),
the only dressing value the single quantum meets: :func:`qdgates.fockspace.f_value`,
computed with ``math``, so it is the same on every host; the gates combine
amplitudes in Python's complex arithmetic.  Dense amplitude vectors and
dressed ``np.kron`` creation matrices are only the test oracle (``tests/oracle.py``).

Basis indices are row-major over the occupations, (n1, n2) for a pair and
(a1, a2, b1, b2) for two pairs, which is the Kronecker product order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .fockspace import POWER_OF_Q, FunctionChoice, FunctionFamily, TruncatedFockSpace
from .fockspace import check_dressing, f_value
from .qnumber import DeformationParam

# Qubit work occupies levels 0..1 only; cutoff 4 leaves margin.
QUBIT_CUTOFF = 4
# The norm-ratio laws a measured ratio is matched to: psi*beta, or its square root.
LAW_PRODUCT = "product"
LAW_SQRT = "sqrt_product"


@dataclass(frozen=True)
class _OscillatorState:
    """Amplitudes on the occupation patterns of ``OSCILLATORS`` oscillators;
    any pattern not listed has amplitude 0, and every amplitude is finite."""

    space: TruncatedFockSpace
    amplitudes: dict[tuple[int, ...], complex]

    def __post_init__(self):
        d = self.space.cutoff
        for pattern, a in self.amplitudes.items():
            if len(pattern) != self.OSCILLATORS or not all(0 <= n < d for n in pattern):
                raise ValueError(f"{pattern} is not {self.OSCILLATORS} occupations below {d}")
            if not cmath.isfinite(a):
                raise ValueError(f"amplitude {a!r} at {pattern} is not finite")

    def norm(self) -> float:
        return math.hypot(*map(abs, self.amplitudes.values()))

    def overlap(self, other: "_OscillatorState") -> complex:
        """<self|other>, summed over the patterns both states list in basis order."""
        common = sorted(self.amplitudes.keys() & other.amplitudes.keys())
        return sum((self.amplitudes[k].conjugate() * other.amplitudes[k] for k in common), 0j)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Occupation pattern of each nonzero amplitude, in basis order."""
        return tuple(sorted(pattern for pattern, a in self.amplitudes.items() if a != 0))

    def nonzero_triples(self) -> list[tuple[int, float, float]]:
        """(row-major basis index, real part, imaginary part) for each nonzero amplitude."""
        d = self.space.cutoff
        return [
            (sum(n * d**k for k, n in enumerate(reversed(pattern))), a.real, a.imag)
            for pattern, a in sorted(self.amplitudes.items())
            if a != 0
        ]


class OscillatorPairState(_OscillatorState):
    """Amplitudes on the joint occupations (n1, n2) of one oscillator pair."""

    OSCILLATORS = 2


class TwoQubitState(_OscillatorState):
    """Amplitudes on the joint occupations (a1, a2, b1, b2) of two oscillator pairs."""

    OSCILLATORS = 4


def _occupations(*labels: int) -> tuple[int, ...]:
    """The occupations ``(x, 1 - x, ...)`` of qubit labels, each 0 or 1."""
    for x in labels:
        if x not in (0, 1):
            raise ValueError(f"qubit label must be 0 or 1, got {x!r}")
    return tuple(n for x in labels for n in (x, 1 - x))


def _is_deformed(p, choice) -> bool:
    """Whether a state or gate is dressed: given p and a choice it is, given
    neither it is plain, and given one alone it raises."""
    if (p is None) != (choice is None):
        raise ValueError("deformed mode needs both a DeformationParam and a FunctionChoice")
    return p is not None


def vacuum(space: TruncatedFockSpace) -> OscillatorPairState:
    """Both oscillators empty; unit amplitude on (0, 0)."""
    return OscillatorPairState(space, {(0, 0): 1.0})


def jm_state(j: float, m: float, space: TruncatedFockSpace) -> OscillatorPairState:
    """Unit-norm angular-momentum state on occupations (j+m, j-m)."""
    n1, n2 = j + m, j - m
    for name, value in (("j+m", n1), ("j-m", n2)):
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    n1, n2 = int(round(n1)), int(round(n2))
    if j < 0 or n1 < 0 or n2 < 0:
        raise ValueError(f"need j >= 0 and |m| <= j, got j={j}, m={m}")
    return OscillatorPairState(space, {(n1, n2): 1.0})


def _dressed_amplitude(p: DeformationParam, g1: float, g2: float) -> float:
    """Amplitude of a deformed basis qubit dressed by ``(g1, g2)``.

    The single quantum sits on a level whose dressing argument is 1 in both
    constructions: the first oscillator's own dressing at n = 1 for x = 1,
    the second oscillator's shifted dressing ``1 - n`` at the first
    oscillator's n = 0 for x = 0.  No other level carries weight, so no
    other level is evaluated: the amplitude is :func:`f_value` at 1, which
    raises on a negative radicand.  A zero dressing raises too, since no
    basis vector has amplitude 0.
    """
    amplitude = f_value(1, p, g1, g2)
    if amplitude == 0:
        raise ValueError("the dressed basis vector has amplitude 0 (zero dressing at argument 1)")
    return amplitude


def _pair_amplitude(p: DeformationParam | None, choice: FunctionChoice | None) -> float:
    """A basis qubit's amplitude: 1.0 if plain, else the dressing of ``choice``'s psi pair."""
    if _is_deformed(p, choice):
        return _dressed_amplitude(p, choice.psi1, choice.psi2)
    return 1.0


def _two_qubit_amplitude(p: DeformationParam | None, choice: FunctionChoice | None) -> float:
    """Amplitude of a two-qubit basis state, whatever its labels: 1.0 when
    plain; when dressed, the control's under ``choice``'s psi pair times the
    target's under its beta pair."""
    if not _is_deformed(p, choice):
        return 1.0
    control = _dressed_amplitude(p, choice.psi1, choice.psi2)
    return control * _dressed_amplitude(p, choice.beta1, choice.beta2)


def qubit_state(
    x: int,
    space: TruncatedFockSpace,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> OscillatorPairState:
    """Basis qubit: occupation (1, 0) for x = 1, (0, 1) for x = 0, dressed
    by the (psi1, psi2) pair of ``choice`` when given a dressing."""
    return OscillatorPairState(space, {_occupations(x): _pair_amplitude(p, choice)})


def two_qubit_state(
    x: int,
    y: int,
    space: TruncatedFockSpace,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> TwoQubitState:
    """Product basis state |x>|y> over two oscillator pairs; when given a
    dressing, the control is dressed by ``choice``'s psi pair and the target
    by its beta pair."""
    return TwoQubitState(space, {_occupations(x, y): _two_qubit_amplitude(p, choice)})


class NormRatioResult(NamedTuple):
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
    matched_law: str  # LAW_PRODUCT or LAW_SQRT

    def distance_to_matched(self) -> float:
        return min(
            abs(self.measured - self.prediction_product),
            abs(self.measured - self.prediction_sqrt),
        )


def _scientific(a: float, b: float) -> str:
    """The product ``a * b``, maybe beyond float64, to four significant digits."""
    from decimal import Decimal  # only this error note needs it

    return f"{Decimal(a) * Decimal(b):.3e}"


def norm_ratio_experiment(p: DeformationParam, psi: float, beta: float) -> NormRatioResult:
    """Squared-norm ratio of a deformed two-qubit basis state to the plain one.

    Both states are one amplitude at the same index and the plain amplitude
    is 1, so the ratio is the square of the deformed amplitude, whatever the
    labels and the space.  A psi or beta that is not finite and positive, a
    zero dressing, and a ratio or prediction beyond float64 range raise.
    """
    check_dressing(psi1=psi, beta1=beta)
    # a dressed two-qubit state's amplitude, control times target; an overflow reads inf
    amplitude = _dressed_amplitude(p, psi, psi) * _dressed_amplitude(p, beta, beta)
    measured = amplitude * amplitude
    product = psi * beta
    if not (math.isfinite(measured) and math.isfinite(product)):
        raise ValueError(
            f"norm ratio overflows float64: measured {_scientific(amplitude, amplitude)}, "
            f"product prediction {_scientific(psi, beta)}"
        )
    sqrt = math.sqrt(product)
    law = LAW_PRODUCT if abs(measured - product) <= abs(measured - sqrt) else LAW_SQRT
    return NormRatioResult(p.s, psi, beta, measured, product, sqrt, law)


class CaseIIOccupation(NamedTuple):
    """Deformed occupation eigenvalue implied by one dressing-function value.

    The deformed eigenvalue sits ``ln(psi)/s`` below the plain one, so a
    dressing value of 1 collapses back onto the undeformed bookkeeping.
    """

    n_hat: int
    psi_value: float
    n_prime: float


def occupation_from_exponent(n_hat: int, alpha: float, p: DeformationParam) -> CaseIIOccupation:
    """Occupation for psi = q**alpha; the deformed eigenvalue is exactly n_hat - alpha."""
    return CaseIIOccupation(n_hat, p.q ** alpha, float(n_hat - alpha))


class CaseIIRow(NamedTuple):
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
