"""Two-oscillator qubits built by the boson realization of angular momentum.

A qubit lives in a pair of oscillators carrying exactly one total quantum:
occupation (1, 0) is spin up (label 1), occupation (0, 1) is spin down
(label 0).  General (j, m) states occupy ``(j+m, j-m)``.  A basis qubit or a
product of two is a single basis vector, so each is written as one amplitude
at one index: 1 for the plain states, and for the deformed ones the dressing
at argument 1 (see :func:`_dressed_amplitude`), the only dressing value the
single quantum ever meets.  Applying the dressed ``np.kron`` creation
matrices to the pair vacuum gives the same amplitudes bit for bit; that
construction is kept only as the test oracle (``tests/test_state_oracle.py``).
``jm_state`` still applies the plain creation matrices, since its towers
hold more than one quantum.

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
    _radicand,
    ladder_ops,
)
from .qnumber import DeformationParam, q_factorial

# Qubit work occupies levels 0..1 only; cutoff 4 leaves margin.
QUBIT_CUTOFF = 4


def pair_index(space: TruncatedFockSpace, n1: int, n2: int) -> int:
    return n1 * space.cutoff + n2


def quad_index(space: TruncatedFockSpace, n_a1: int, n_a2: int, n_b1: int, n_b2: int) -> int:
    d = space.cutoff
    return ((n_a1 * d + n_a2) * d + n_b1) * d + n_b2


@dataclass(frozen=True)
class OscillatorPairState:
    """Amplitude vector over the joint occupations of one oscillator pair."""

    space: TruncatedFockSpace
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "OscillatorPairState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def support(self) -> tuple[tuple[int, int], ...]:
        d = self.space.cutoff
        return tuple(
            (int(i) // d, int(i) % d) for i in np.nonzero(self.amplitudes)[0]
        )

    def nonzero_triples(self) -> list[tuple[int, float, float]]:
        """(basis index, real part, imaginary part) for each nonzero amplitude."""
        return [
            (int(i), float(self.amplitudes[i].real), float(self.amplitudes[i].imag))
            for i in np.nonzero(self.amplitudes)[0]
        ]


@dataclass(frozen=True)
class TwoQubitState:
    """Amplitude vector over the joint occupations of two oscillator pairs."""

    space: TruncatedFockSpace
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "TwoQubitState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def support(self) -> tuple[tuple[int, int, int, int], ...]:
        d = self.space.cutoff
        out = []
        for i in np.nonzero(self.amplitudes)[0]:
            i = int(i)
            out.append((i // d**3, (i // d**2) % d, (i // d) % d, i % d))
        return tuple(out)

    def nonzero_triples(self) -> list[tuple[int, float, float]]:
        return [
            (int(i), float(self.amplitudes[i].real), float(self.amplitudes[i].imag))
            for i in np.nonzero(self.amplitudes)[0]
        ]


def _check_label(x: int) -> None:
    if x not in (0, 1):
        raise ValueError(f"qubit label must be 0 or 1, got {x!r}")


def _qubit_vector(space: TruncatedFockSpace, x: int, amplitude) -> np.ndarray:
    amp = np.zeros(space.cutoff**2, dtype=complex)
    amp[pair_index(space, x, 1 - x)] = amplitude
    return amp


def _two_qubit_vector(space: TruncatedFockSpace, x: int, y: int, amplitude) -> np.ndarray:
    amp = np.zeros(space.cutoff**4, dtype=complex)
    amp[quad_index(space, x, 1 - x, y, 1 - y)] = amplitude
    return amp


def pair_creation_ops(space: TruncatedFockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Creation matrices for the two oscillators of a pair."""
    _, a_dag, _ = ladder_ops(space)
    eye = np.eye(space.cutoff)
    return np.kron(a_dag, eye), np.kron(eye, a_dag)


def vacuum(space: TruncatedFockSpace) -> OscillatorPairState:
    """Both oscillators empty; unit amplitude on (0, 0)."""
    amp = np.zeros(space.cutoff**2, dtype=complex)
    amp[pair_index(space, 0, 0)] = 1.0
    return OscillatorPairState(space, amp)


def qubit_state(x: int, space: TruncatedFockSpace) -> OscillatorPairState:
    """Basis qubit: occupation (1, 0) for x = 1, (0, 1) for x = 0."""
    _check_label(x)
    return OscillatorPairState(space, _qubit_vector(space, x, 1.0))


def jm_state(j: float, m: float, space: TruncatedFockSpace) -> OscillatorPairState:
    """Unit-norm angular-momentum state on occupations (j+m, j-m)."""
    n1 = j + m
    n2 = j - m
    for name, value in (("j+m", n1), ("j-m", n2)):
        if abs(value - round(value)) > 1e-9:
            raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    n1 = int(round(n1))
    n2 = int(round(n2))
    if j < 0 or n1 < 0 or n2 < 0:
        raise ValueError(f"need j >= 0 and |m| <= j, got j={j}, m={m}")
    if n1 >= space.cutoff or n2 >= space.cutoff:
        raise ValueError(
            f"occupations ({n1}, {n2}) exceed the cutoff {space.cutoff}"
        )
    c1, c2 = pair_creation_ops(space)
    amp = vacuum(space).amplitudes
    for _ in range(n1):
        amp = c1 @ amp
    for _ in range(n2):
        amp = c2 @ amp
    amp = amp / math.sqrt(math.factorial(n1) * math.factorial(n2))
    return OscillatorPairState(space, amp)


def _dressed_amplitude(x: int, p: DeformationParam, g1: float, g2: float) -> float:
    """Amplitude of the deformed basis qubit ``x`` dressed by ``(g1, g2)``.

    The single quantum sits on a level whose dressing argument is 1 in both
    constructions: the first oscillator's own dressing at n = 1 for x = 1,
    the second oscillator's shifted dressing ``1 - n`` at the first
    oscillator's n = 0 for x = 0.  No other level carries weight, so no
    other level is evaluated; a negative radicand at argument 1 still raises.
    The value does not depend on ``x``.
    """
    # deformed factorials of the occupations; identically 1 at qubit labels,
    # kept so the normalization has the same shape as for higher towers
    norm = math.sqrt(q_factorial(x, p) * q_factorial(1 - x, p))
    # the dressing_vector formula on float64 scalars, without its array round-trip
    r = _radicand(np.float64(1), np.float64(p.s), np.float64(g1), np.float64(g2))
    if r < 0:
        raise RadicandError(f"negative radicand at level n=1 with psi1={g1}, psi2={g2}")
    return np.sqrt(r) / norm


def deformed_qubit_state(
    x: int, p: DeformationParam, choice: FunctionChoice, space: TruncatedFockSpace
) -> OscillatorPairState:
    """Deformed basis qubit; same support as ``qubit_state``, rescaled by the dressing."""
    _check_label(x)
    amplitude = _dressed_amplitude(x, p, choice.psi1, choice.psi2)
    return OscillatorPairState(space, _qubit_vector(space, x, amplitude))


def basis_two_qubit_state(x: int, y: int, space: TruncatedFockSpace) -> TwoQubitState:
    """Undeformed product basis state |x>|y> over two oscillator pairs."""
    _check_label(x)
    _check_label(y)
    return TwoQubitState(space, _two_qubit_vector(space, x, y, 1.0))


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
    _check_label(x)
    _check_label(y)
    ctrl = _dressed_amplitude(x, p, choice_a.psi1, choice_a.psi2)
    tgt = _dressed_amplitude(y, p, choice_b.beta1, choice_b.beta2)
    return TwoQubitState(space, _two_qubit_vector(space, x, y, ctrl * tgt))


@dataclass(frozen=True)
class NormRatioResult:
    """Measured deformed/undeformed squared-norm ratio with both candidate laws.

    The construction itself decides which law it satisfies; neither
    prediction is privileged here.
    """

    measured: float
    prediction_product: float  # psi * beta
    prediction_sqrt: float  # sqrt(psi * beta)

    def matched_law(self) -> str:
        d_product = abs(self.measured - self.prediction_product)
        d_sqrt = abs(self.measured - self.prediction_sqrt)
        return "product" if d_product <= d_sqrt else "sqrt_product"

    def distance_to_matched(self) -> float:
        return min(
            abs(self.measured - self.prediction_product),
            abs(self.measured - self.prediction_sqrt),
        )


def norm_ratio_experiment(
    x: int,
    y: int,
    p: DeformationParam,
    psi: float,
    beta: float,
    space: TruncatedFockSpace,
) -> NormRatioResult:
    """Squared-norm ratio of the deformed basis state to the undeformed one.

    Both states are one amplitude at the same index and the plain amplitude
    is 1, so the ratio is the square of the deformed amplitude, whatever
    ``space`` is.  A ratio or prediction beyond float64 range raises.
    """
    if not (psi > 0 and beta > 0):
        raise ValueError(f"psi and beta must be positive, got psi={psi!r}, beta={beta!r}")
    _check_label(x)
    _check_label(y)
    # in Python floats an overflow reads inf without a numpy warning
    amplitude = float(_dressed_amplitude(x, p, psi, psi)) * float(_dressed_amplitude(y, p, beta, beta))
    measured = amplitude * amplitude
    product = psi * beta
    if not (math.isfinite(measured) and math.isfinite(product)):
        ratio = np.format_float_scientific(np.longdouble(amplitude) ** 2, precision=3)
        prediction = np.format_float_scientific(np.longdouble(psi) * beta, precision=3)
        raise ValueError(
            f"norm ratio overflows float64: measured {ratio}, product prediction {prediction}"
        )
    return NormRatioResult(measured, product, math.sqrt(product))


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
