"""Qubit gate actions on oscillator-pair states and realizability checks.

A gate, like a state, is deformed exactly when given a dressing (p and a
choice), and acts on the dressed basis vectors as the plain gate acts on the
plain ones.  Those are the states of :mod:`qubits`, one amplitude on one
occupation pattern, so every gate is scalar arithmetic on the down and up
amplitudes (or the one two-qubit amplitude): each becomes a coefficient on
its basis vector, its quotient by that vector's amplitude, and the output is
the same combination of the gate's images of those vectors.  It is Python's
complex arithmetic, and each float it meets is made ``complex`` first: Python
3.14 divides and multiplies a complex by a float componentwise, where earlier
versions make the float complex, and the two can differ in a zero's sign.
The realizability conditions are closed forms that return their float64
residual, which the report judges: the NOT condition is |psi1/psi2 - 1|,
the CNOT one the sign and range of a radicand.
"""

from __future__ import annotations

import cmath
import math

from .fockspace import FunctionChoice, RadicandError, radicand
from .qnumber import DeformationParam
from .qubits import OscillatorPairState, TwoQubitState, _dressed_amplitude, _occupations
from .qubits import _pair_amplitude, _two_qubit_amplitude

NOT_CONDITION = "not_condition"
CNOT_CONDITION = "cnot_condition"

_SQRT2 = math.sqrt(2.0)
_DOWN, _UP = _occupations(0), _occupations(1)


def _qubit_components(state: OscillatorPairState) -> tuple[complex, complex]:
    """Amplitudes on the down/up patterns; rejects any other nonzero amplitude."""
    if any(a != 0 for pattern, a in state.amplitudes.items() if pattern not in (_DOWN, _UP)):
        raise ValueError("state has support outside the qubit occupations (1,0)/(0,1)")
    return complex(state.amplitudes.get(_DOWN, 0j)), complex(state.amplitudes.get(_UP, 0j))


def _extend(state: OscillatorPairState, a_down: float, a_up: float, images) -> dict:
    """The gate whose images of the down and up basis vectors (amplitudes ``a_down``, ``a_up``)
    are ``images``, each given by its (down, up) amplitudes, extended linearly; every float
    is made complex, so a zero's sign does not depend on the Python version."""
    amp_down, amp_up = _qubit_components(state)
    c_up, c_down = amp_up / complex(a_up), amp_down / complex(a_down)
    (down_down, down_up), (up_down, up_up) = images
    return {
        _DOWN: c_down * complex(down_down) + c_up * complex(up_down),
        _UP: c_down * complex(down_up) + c_up * complex(up_up),
    }


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
    a = _pair_amplitude(p, choice)
    return OscillatorPairState(state.space, _extend(state, a, a, ((0.0, a), (a, 0.0))))


def check_not_condition(p: DeformationParam, choice: FunctionChoice) -> float:
    """Eigenvalue condition under which the deformed flip is indistinguishable
    from the plain one.

    At both qubit occupations the condition pins the ratio psi1/psi2 to a
    target that is exactly 1 for every q (1/1 at n_hat = 0, -1/-1 at
    n_hat = 1), so the residual is ``|psi1/psi2 - 1|``: the verdict is
    invariant under a common rescaling of the pair.  The flip, superposition
    and phase gates share this condition.  A ratio beyond float64 range raises.
    """
    residual = abs(choice.psi1 / choice.psi2 - 1.0)
    if residual == math.inf:
        raise ValueError(f"residual must be finite and nonnegative, got {residual!r}")
    return residual


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
    a_up = _pair_amplitude(p, choice)
    a_down = 1.0 if choice is None else _dressed_amplitude(p, choice.psi3, choice.psi4)
    out = _extend(state, a_down, a_up, ((a_down, a_up), (a_down, -a_up)))
    return OscillatorPairState(state.space, {k: a / complex(_SQRT2) for k, a in out.items()})


def apply_phase_shift(state: OscillatorPairState, theta: float) -> OscillatorPairState:
    """Multiply the up component by e**(i*theta); the down component is untouched."""
    if not math.isfinite(theta):
        raise ValueError(f"phase angle must be finite, got {theta!r}")
    amp_down, amp_up = _qubit_components(state)
    return OscillatorPairState(state.space, {_DOWN: amp_down, _UP: cmath.exp(1j * theta) * amp_up})


def _basis_component(state: TwoQubitState) -> tuple[tuple[int, int], complex]:
    """The (x, y) labels of the pattern a scaled basis state occupies, and its amplitude."""
    support = state.support()
    if len(support) != 1:
        raise ValueError("two-qubit gate input must be a scaled product basis state")
    pattern = support[0]
    labels = pattern[::2]
    if max(pattern) > 1 or _occupations(*labels) != pattern:
        raise ValueError("two-qubit gate input has support outside the qubit patterns")
    return labels, complex(state.amplitudes[pattern])


def apply_cnot(
    state: TwoQubitState,
    p: DeformationParam | None = None,
    choice: FunctionChoice | None = None,
) -> TwoQubitState:
    """Flip the target qubit exactly when the control is up; a control-down
    input comes back unchanged, after the same argument and dressing checks.
    Given a dressing, the control is dressed by ``choice``'s psi pair and the
    target by its beta pair."""
    (x, y), amp = _basis_component(state)
    amplitude = _two_qubit_amplitude(p, choice)
    coefficient = amp / complex(amplitude)
    if x == 0:
        return state
    return TwoQubitState(state.space, {_occupations(x, 1 - y): coefficient * complex(amplitude)})


def check_cnot_condition(p: DeformationParam, choice: FunctionChoice) -> float:
    """Both sides of the target-swap condition at the qubit occupations.

    With the swapped target carrying k_hat = k, both sides at either control
    value k are the square root of the argument-1 radicand times zeroth
    powers, so the residual is exactly 0.  What the check tests is that the
    radicand, :func:`qdgates.fockspace.radicand` at 1 of ``choice``'s beta
    pair as the target's dressed amplitude takes it, is a float64 that is not
    negative: a negative one raises :class:`RadicandError`, one beyond float64
    a ValueError, as that amplitude does.  The psi pair plays no part.
    """
    beta1, beta2 = choice.beta1, choice.beta2
    r = radicand(1, p.s, beta1, beta2)
    if r < 0:
        raise RadicandError(f"negative radicand in swap-condition factor at argument 1 "
                            f"with beta1={beta1}, beta2={beta2}")
    if not math.isfinite(r):
        raise ValueError(f"swap-condition radicand overflows float64 at argument 1 "
                         f"with beta1={beta1}, beta2={beta2}")
    return 0.0
