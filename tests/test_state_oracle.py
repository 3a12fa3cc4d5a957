"""The closed-form qubit and gate states against the creation-matrix oracle,
and the closed-form gate conditions against their written-out expressions.

The oracle is the earlier construction: dressed ``np.kron`` creation
matrices over every retained level, applied to the pair vacuum, with
two-qubit states formed as Kronecker products of pair states.  Its dressing
is the dressing formula evaluated level by level with ``math``
(``oracle.libm_dressing``), as ``fockspace.f_value`` evaluates it, so the
comparison does not depend on which SIMD kernels numpy picks for ``exp`` and
``sinh``.  The closed form writes the one
nonzero amplitude directly, computed with the same floating-point operations,
so wherever the oracle succeeds every amplitude, truth-table row and norm
ratio must agree bit for bit.  Where the oracle raises, it is because it
also evaluates levels that carry no weight; the closed form may then
succeed.

The gates are also checked against their forked bodies: the separate plain
and deformed code each gate had before every gate took one path.

A state lists amplitudes on occupation patterns; the oracles give dense
vectors over every joint occupation.  A state matches an oracle vector when
every amplitude it holds has the vector's bits at that pattern's index,
signed zeros included, and the vector is exactly 0 everywhere else
(``assert_same_bits``).  Further properties check that a deformed gate is
the plain one conjugated by the diagonal of argument-1 dressings, and the
algebra of the universal set (Hadamard, phase shift, CNOT) in the dressed
basis.
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracle import basis_index, dense, libm_dressing, plain_ladder

import qdgates.gates as gates_module
import qdgates.qubits as qubits_module
import qdgates.report as report_module
from qdgates.fockspace import FunctionChoice, FunctionFamily, RadicandError, TruncatedFockSpace
from qdgates.gates import (
    _SQRT2,
    TruthTableRow,
    _basis_component,
    _coefficient,
    _qubit_components,
    apply_cnot,
    apply_hadamard,
    apply_not,
    apply_phase_shift,
    check_cnot_condition,
    check_not_condition,
    cnot_truth_table,
)
from qdgates.qnumber import DeformationParam, q_factorial
from qdgates.qubits import (
    QUBIT_CUTOFF,
    OscillatorPairState,
    TwoQubitState,
    _occupations,
    jm_state,
    norm_ratio_experiment,
    qubit_state,
    two_qubit_state,
    vacuum,
)
from qdgates.report import SweepConfig, run_sweep


def pair_creation_ops(space):
    """Creation matrices for the two oscillators of a pair."""
    _, a_dag, _ = plain_ladder(space)
    eye = np.eye(space.cutoff)
    return np.kron(a_dag, eye), np.kron(eye, a_dag)


def libm_dressing_diag(arguments, p, g1, g2):
    return np.diag([libm_dressing(n, p, g1, g2) for n in arguments])


def deformed_pair_creation_ops(space, p, g1, g2):
    """Dressed creation matrices for a pair.

    Oscillator 1 carries the dressing at its own occupation; oscillator 2
    carries it at one minus the *first* oscillator's occupation, the form
    appropriate when the pair holds a single quantum in total.
    """
    _, a_dag, _ = plain_ladder(space)
    eye = np.eye(space.cutoff)
    f_own = libm_dressing_diag(range(space.cutoff), p, g1, g2)
    f_shift = libm_dressing_diag([1 - n for n in range(space.cutoff)], p, g1, g2)
    return np.kron(f_own @ a_dag, eye), np.kron(f_shift, a_dag)


def oracle_qubit(x, space):
    c1, c2 = pair_creation_ops(space)
    return (c1 if x == 1 else c2) @ dense(vacuum(space))


def oracle_deformed_qubit(x, p, g1, g2, space):
    c1, c2 = deformed_pair_creation_ops(space, p, g1, g2)
    amp = (c1 if x == 1 else c2) @ dense(vacuum(space))
    return amp / math.sqrt(q_factorial(x, p) * q_factorial(1 - x, p))


def oracle_basis_two_qubit(x, y, space):
    return np.kron(oracle_qubit(x, space), oracle_qubit(y, space))


def oracle_two_qubit(x, y, p, choice_a, choice_b, space):
    ctrl = oracle_deformed_qubit(x, p, choice_a.psi1, choice_a.psi2, space)
    tgt = oracle_deformed_qubit(y, p, choice_b.beta1, choice_b.beta2, space)
    return np.kron(ctrl, tgt)


def oracle_cnot_truth_table(p, choice_a, choice_b, space):
    """The deformed table, each row built from oracle states as before."""

    def state(x, y):
        return oracle_two_qubit(x, y, p, choice_a, choice_b, space)

    rows = []
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        state_in = state(x, y)
        nz = np.nonzero(state_in)[0]
        if len(nz) != 1:
            raise ValueError("two-qubit gate input must be a scaled product basis state")
        amp = complex(state_in[nz[0]])
        if x == 0:
            state_out = state_in.copy()
        else:
            reference_in = state(x, y)
            scale = amp / reference_in[basis_index(space, _occupations(x, y))]
            state_out = scale * state(x, 1 - y)
        expected = (x, y ^ x)
        idx = basis_index(space, _occupations(*expected))
        off = float(np.max(np.abs(np.delete(state_out, idx))))
        rows.append(TruthTableRow((x, y), expected, complex(state_out[idx]), off))
    return rows


def oracle_deformed_hadamard(state, p, choice):
    """The deformed Hadamard with both basis vectors built by creation matrices."""
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    basis_up = oracle_deformed_qubit(1, p, choice.psi1, choice.psi2, space)
    _, a_dag, _ = plain_ladder(space)
    f_own = libm_dressing_diag(range(space.cutoff), p, choice.psi3, choice.psi4)
    basis_down = np.kron(np.eye(space.cutoff), f_own @ a_dag) @ dense(vacuum(space))
    c_up = amp_up / basis_up[basis_index(space, (1, 0))]
    c_down = amp_down / basis_down[basis_index(space, (0, 1))]
    return (c_down * (basis_down + basis_up) + c_up * (basis_down - basis_up)) / _SQRT2


def oracle_norm_ratio(x, y, p, psi, beta, space):
    deformed = oracle_two_qubit(
        x, y, p, FunctionChoice(psi1=psi, psi2=psi), FunctionChoice(beta1=beta, beta2=beta), space
    )
    plain = oracle_basis_two_qubit(x, y, space)
    return float(np.vdot(deformed, deformed).real / np.vdot(plain, plain).real)


ZERO_AMPLITUDE = (ValueError, "the dressed basis vector has amplitude 0 (zero dressing at argument 1)")
# at s = 1 the argument-1 radicand of (psi1, psi2) = (1, q**2) is exactly 0
ZERO_P = DeformationParam(1.0)
ZERO_CHOICE = FunctionChoice(psi1=1.0, psi2=ZERO_P.q**2)
P_HALF = DeformationParam(0.5)


def bits(value):
    """Every bit of an amplitude vector, a float or a truth table, signed zeros included."""
    if isinstance(value, list):
        return [
            (r.input_bits, r.expected_bits, bits(np.complex128(r.amplitude)), bits(r.off_support))
            for r in value
        ]
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


def assert_same_bits(value, expected):
    """Bitwise equality.  A state matches a dense ``expected`` on every
    pattern it holds, and ``expected`` must be exactly 0 on every other, or
    nan there where numpy multiplied an infinite coefficient by a zero entry
    (inputs are finite, so no other step of a dense body leaves nan there)."""
    if isinstance(value, (OscillatorPairState, TwoQubitState)):
        held = [basis_index(value.space, pattern) for pattern in value.amplitudes]
        rest = np.delete(expected, held)
        assert not np.any(rest[~np.isnan(rest)])
        value, expected = dense(value)[held], expected[held]
    assert bits(value) == bits(expected)


def assert_matches_oracle(closed_form, oracle):
    """Bitwise equality wherever the oracle succeeds; the closed form must
    then succeed too.  Where the oracle meets a basis vector of amplitude 0
    (its states and norm ratio come out 0, its table finds no support, its
    Hadamard divides by 0), the closed form must raise the error for it.
    Returns whether the oracle succeeded with a nonzero result."""
    try:
        expected = oracle()
    except RadicandError:
        return False
    except (ValueError, RuntimeWarning):
        expected = 0.0
    if not isinstance(expected, list) and not np.any(expected):
        with pytest.raises(ValueError, match=re.escape(ZERO_AMPLITUDE[1])):
            closed_form()
        return False
    assert_same_bits(closed_form(), expected)
    return True


@st.composite
def qubit_points(draw):
    s = draw(st.floats(min_value=0.01, max_value=1.0, exclude_min=True))
    q = math.exp(s)
    value = st.one_of(
        st.sampled_from((1.0, q, q**0.5, q**2)),
        st.floats(min_value=0.01, max_value=100.0),
    )
    pairs = [(draw(value), draw(value)) for _ in range(3)]
    choice = FunctionChoice(*pairs[0], *pairs[1], *pairs[2])
    cutoff = draw(st.integers(min_value=2, max_value=6))
    x, y = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return TruncatedFockSpace(cutoff), DeformationParam(s), choice, x, y


@settings(deadline=None)
@given(qubit_points())
@example((TruncatedFockSpace(4), ZERO_P, ZERO_CHOICE, 0, 1))
def test_closed_form_equals_the_creation_matrix_oracle(point):
    space, p, choice, x, y = point
    assert_matches_oracle(lambda: qubit_state(x, space), lambda: oracle_qubit(x, space))
    assert_matches_oracle(
        lambda: two_qubit_state(x, y, space), lambda: oracle_basis_two_qubit(x, y, space)
    )
    hadamard_inputs = [qubit_state(x, space)]
    if assert_matches_oracle(
        lambda: qubit_state(x, space, p, choice),
        lambda: oracle_deformed_qubit(x, p, choice.psi1, choice.psi2, space),
    ):
        hadamard_inputs.append(qubit_state(x, space, p, choice))
    assert_matches_oracle(
        lambda: two_qubit_state(x, y, space, p, choice, choice),
        lambda: oracle_two_qubit(x, y, p, choice, choice, space),
    )
    assert_matches_oracle(
        lambda: cnot_truth_table(p, choice, choice),
        lambda: oracle_cnot_truth_table(p, choice, choice, space),
    )
    assert_matches_oracle(
        lambda: norm_ratio_experiment(p, choice.psi1, choice.beta1).measured,
        lambda: oracle_norm_ratio(x, y, p, choice.psi1, choice.beta1, space),
    )
    for state in hadamard_inputs:
        assert_matches_oracle(
            lambda: apply_hadamard(state, p, choice),
            lambda: oracle_deformed_hadamard(state, p, choice),
        )


def oracle_plain_cnot_truth_table(space):
    """The plain table as before: product basis vectors through ``apply_cnot``."""
    rows = []
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        state_out = dense(apply_cnot(two_qubit_state(x, y, space)))
        expected = (x, y ^ x)
        idx = basis_index(space, _occupations(*expected))
        off = float(np.max(np.abs(np.delete(state_out, idx))))
        rows.append(TruthTableRow((x, y), expected, complex(state_out[idx]), off))
    return rows


@pytest.mark.parametrize("cutoff", [None, 2, 3, 6])
def test_plain_truth_table_equals_the_vector_oracle(cutoff):
    # None is the sweep's call, on the default qubit space
    space = TruncatedFockSpace(cutoff) if cutoff else None
    oracle = oracle_plain_cnot_truth_table(space or TruncatedFockSpace(QUBIT_CUTOFF))
    assert bits(cnot_truth_table()) == bits(oracle)


def test_deformed_table_keeps_a_self_quotient_that_is_not_one():
    # at s = 0.5 with psi = q, beta = 1 the row amplitude is e**0.25, whose
    # complex128 quotient by itself is 1 - 2**-53; the flipped rows carry it
    p = DeformationParam(0.5)
    space = TruncatedFockSpace(4)
    choice = FunctionChoice.from_families(FunctionFamily.parse("q"), FunctionFamily.parse("1"), p.q)
    oracle = oracle_two_qubit(1, 0, p, choice, choice, space)
    amp = complex(oracle[basis_index(space, (1, 0, 0, 1))])
    scale = amp / np.complex128(amp)
    assert scale != 1 and scale * amp != amp
    rows = cnot_truth_table(p, choice, choice)
    assert bits(rows) == bits(oracle_cnot_truth_table(p, choice, choice, space))
    assert rows[0].amplitude == amp and rows[2].amplitude != amp


def test_run_sweep_builds_no_two_qubit_vectors(monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for module in (qubits_module, gates_module, report_module):
        for name in ("qubit_state", "two_qubit_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    q, q2 = FunctionFamily.parse("q"), FunctionFamily.parse("q^2")
    run_sweep(SweepConfig(s_grid=(0.1, 0.5, 0.9), psi_family=q, beta_family=q2))
    assert calls == []
    # the counter does see a caller that still builds the vectors
    p = DeformationParam(0.5)
    space = TruncatedFockSpace(4)
    choice = FunctionChoice.unit()
    apply_cnot(qubits_module.two_qubit_state(1, 0, space, p, choice, choice), p, choice, choice)
    assert calls == ["two_qubit_state"]


def forked_not(state, deformed=False, p=None, choice=None):
    """The flip as written before the one gate path: a plain and a deformed body."""
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    out = np.zeros_like(dense(state))
    if not deformed:
        out[basis_index(space, (1, 0))] = amp_down
        out[basis_index(space, (0, 1))] = amp_up
        return out
    basis_up = dense(qubit_state(1, space, p, choice))
    basis_down = dense(qubit_state(0, space, p, choice))
    pref_up = basis_up[basis_index(space, (1, 0))]
    pref_down = basis_down[basis_index(space, (0, 1))]
    return (amp_up / pref_up) * basis_down + (amp_down / pref_down) * basis_up


def forked_hadamard(state, deformed=False, p=None, choice=None):
    """The superposition gate as written before the one gate path."""
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    if not deformed:
        out = np.zeros_like(dense(state))
        out[basis_index(space, (0, 1))] = (amp_down + amp_up) / _SQRT2
        out[basis_index(space, (1, 0))] = (amp_down - amp_up) / _SQRT2
        return out
    basis_up = dense(qubit_state(1, space, p, choice))
    own = FunctionChoice(psi1=choice.psi3, psi2=choice.psi4)
    basis_down = dense(qubit_state(0, space, p, own))
    c_up = amp_up / basis_up[basis_index(space, (1, 0))]
    c_down = amp_down / basis_down[basis_index(space, (0, 1))]
    return (c_down * (basis_down + basis_up) + c_up * (basis_down - basis_up)) / _SQRT2


def forked_phase(state, theta):
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    out = np.zeros_like(dense(state))
    out[basis_index(space, (0, 1))] = amp_down
    out[basis_index(space, (1, 0))] = cmath.exp(1j * theta) * amp_up
    return out


def forked_cnot(state, deformed=False, p=None, choice_a=None, choice_b=None):
    """The controlled flip as written before the one gate path, except that the
    deformed reference states are built, and the input divided by its
    reference amplitude, before the control-down shortcut, so that an invalid
    dressing raises for either control, as the gate now does."""
    space = state.space
    (x, y), amp = _basis_component(state)
    if deformed:
        reference_in = dense(two_qubit_state(x, y, space, p, choice_a, choice_b))
        reference_out = dense(two_qubit_state(x, 1 - y, space, p, choice_a, choice_b))
        scale = amp / reference_in[basis_index(space, _occupations(x, y))]
    if x == 0:
        return dense(state)
    if not deformed:
        out = np.zeros_like(dense(state))
        out[basis_index(space, _occupations(x, 1 - y))] = amp
        return out
    return scale * reference_out


def gate_outcome(call):
    """What a gate returned, or the type and text of what it raised (a numpy
    division by a zero amplitude raises, as warnings are errors)."""
    try:
        return call()
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


def forked_outcome(call):
    """The gate_outcome of a forked body, where its division by a zero
    amplitude (numpy's divide-by-zero, or for 0/0 invalid-value, warning) is
    the ValueError the gates now raise before dividing.  The gates compute in
    Python scalars, which return inf and nan without a flag, so numpy's other
    overflow and invalid-value flags are not errors here: the body's values
    are compared.  Some of those overflow flags are spurious: numpy raises one
    for complex products near the float64 limit (8.99e307+8.99e307j times a
    3-entry vector) whose every entry is finite."""
    with np.errstate(over="ignore"):
        outcome = gate_outcome(call)
    if isinstance(outcome, tuple) and outcome[1] in (
        "divide by zero encountered in scalar divide",
        "invalid value encountered in scalar divide",
    ):
        return ZERO_AMPLITUDE
    if isinstance(outcome, tuple) and outcome[0] is RuntimeWarning:
        with np.errstate(over="ignore", invalid="ignore"):
            return gate_outcome(call)
    return outcome


def assert_same_outcome(outcome, expected):
    """Both raised the same, or the state has ``expected``'s bits."""
    if isinstance(outcome, tuple) or isinstance(expected, tuple):
        assert isinstance(outcome, tuple) and isinstance(expected, tuple)
        assert outcome == expected
    else:
        assert_same_bits(outcome, expected)


def within_one_ulp(a, b):
    pairs = ((a.real, b.real), (a.imag, b.imag))
    return all(np.all(np.abs(x - y) <= np.spacing(np.abs(y))) for x, y in pairs)


finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
finite_float = st.floats(allow_nan=False, allow_infinity=False)


NEAR_LIMIT = 8.99e307 + 8.99e307j  # real plus imaginary part exceeds the float64 limit
NEGATIVE_ZERO = complex(-0.0, -0.0)


@settings(deadline=None)
@given(qubit_points(), finite_complex, finite_complex, finite_float)
@example((TruncatedFockSpace(4), ZERO_P, ZERO_CHOICE, 0, 1), 1 + 0j, 0j, 0.0)
@example((TruncatedFockSpace(4), ZERO_P, ZERO_CHOICE, 1, 0), 2 + 1j, -1j, 0.0)
@example((TruncatedFockSpace(2), P_HALF, FunctionChoice.unit(), 1, 0), 1 + 0j, NEAR_LIMIT, 0.0)
@example((TruncatedFockSpace(3), P_HALF, FunctionChoice.unit(), 1, 0), 1 + 0j, NEAR_LIMIT, 0.0)
# the flip's up amplitude is -0.0 + (-0.0): its sign comes from the zero image entry
@example((TruncatedFockSpace(2), P_HALF, FunctionChoice.unit(), 0, 0), NEGATIVE_ZERO, -1 + 1j, 0.0)
def test_one_gate_path_equals_the_forked_gate_bodies(point, down, up, theta):
    space, p, choice, x, y = point
    pair_state = OscillatorPairState(space, {_occupations(0): down, _occupations(1): up})
    quad_state = TwoQubitState(space, {_occupations(x, y): down})
    unit = FunctionChoice.unit()
    assert_same_bits(apply_phase_shift(pair_state, theta), forked_phase(pair_state, theta))
    cases = (
        (apply_not, forked_not, pair_state, (choice,), (unit,), np.array_equal),
        (apply_hadamard, forked_hadamard, pair_state, (choice,), (unit,), within_one_ulp),
        (apply_cnot, forked_cnot, quad_state, (choice, choice), (unit, unit), np.array_equal),
    )
    for gate, forked, state, choices, units, plain_agrees in cases:
        # the deformed gate keeps the deformed body's floating-point steps
        assert_same_outcome(
            gate_outcome(lambda: gate(state, p, *choices)),
            forked_outcome(lambda: forked(state, True, p, *choices)),
        )
        # a plain gate is that body at unit dressing, whose amplitudes are exactly 1.0
        plain = gate_outcome(lambda: gate(state))
        assert_same_outcome(plain, forked_outcome(lambda: forked(state, True, p, *units)))
        # and the plain body's values, wherever that body gave finite ones; a
        # zero may change sign, and the plain superposition is now rounded as
        # the deformed one always was, x times the rounded 1/sqrt(2)
        try:
            expected = forked(state)
        except ValueError as exc:
            assert plain == (type(exc), str(exc))
            continue
        if np.all(np.isfinite(expected)):
            assert plain_agrees(dense(plain), expected)


@settings(deadline=None)
@given(
    finite_complex,
    st.one_of(
        st.sampled_from((5e-324, 1e-308, 1e308)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    ),
)
@example(complex(-0.0, 5.0), 2.0)  # the real part of the quotient is +0.0, not -0.0
@example(complex(-5.0, -0.0), 0.3)  # the imaginary part is +0.0, not -0.0
def test_coefficient_is_the_complex128_quotient(amp, amplitude):
    # numpy flags the overflow of 1/5e-324 and the nan of 0 * inf; the
    # Python scalars give the same values without a flag
    with np.errstate(over="ignore", invalid="ignore"):
        expected = amp / np.complex128(amplitude)
    assert bits(_coefficient(amp, amplitude)) == bits(expected)


@st.composite
def dressed_points(draw):
    """A cutoff, a strength and a dressing with psi1 != psi2 and (psi3, psi4)
    != (psi1, psi2), each pair of which has a positive argument-1 radicand."""
    space = TruncatedFockSpace(draw(st.integers(min_value=2, max_value=6)))
    p = DeformationParam(draw(st.floats(min_value=0.01, max_value=1.0)))

    def pair():
        g1 = draw(st.floats(min_value=0.1, max_value=10.0))
        # g2 <= q * g1 keeps exp(s)*g1 - exp(-s)*g2 at or above (q - 1)*g1 > 0
        return g1, g1 * draw(st.floats(min_value=0.05, max_value=p.q))

    (psi1, psi2), (beta1, beta2), (psi3, psi4) = pair(), pair(), pair()
    assume(psi1 != psi2 and (psi3, psi4) != (psi1, psi2))
    return space, p, FunctionChoice(psi1, psi2, beta1, beta2, psi3, psi4)


moderate_complex = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6)
moderate_complex_or_zero = st.one_of(st.just(0j), moderate_complex)
EPS = np.finfo(float).eps


def assert_within_ulps(actual, expected, scale, ulps=8):
    """Every entry within ``ulps`` units in the last place of ``scale``, the
    largest magnitude that enters the computation."""
    assert np.max(np.abs(actual - expected)) <= ulps * EPS * scale


@settings(deadline=None)
@given(dressed_points(), moderate_complex, moderate_complex_or_zero)
def test_deformed_gates_are_the_plain_ones_conjugated_by_the_dressing(point, down, up):
    # D = diag(down, up argument-1 amplitudes), the oracle's dressing formula
    # at argument 1; on the two qubit patterns the deformed gate is D U D^-1
    space, p, choice = point
    idx = [basis_index(space, _occupations(x)) for x in (0, 1)]
    a_flip = [libm_dressing(1, p, choice.psi1, choice.psi2)] * 2
    a_superpose = [libm_dressing(1, p, choice.psi3, choice.psi4), a_flip[1]]
    state = OscillatorPairState(space, {_occupations(0): down, _occupations(1): up})
    cases = (
        (apply_not, np.array([[0.0, 1.0], [1.0, 0.0]]), a_flip),
        (apply_hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2, a_superpose),
    )
    for gate, plain, a in cases:
        conjugated = np.diag(a) @ plain @ np.diag(1 / np.array(a))
        expected = np.zeros(space.cutoff**2, dtype=complex)
        expected[idx] = conjugated @ [down, up]
        scale = np.max(np.abs(conjugated) @ np.abs([down, up]))
        assert_within_ulps(dense(gate(state, p, choice)), expected, scale)
    # the controlled flip permutes the four patterns, each dressed by the
    # control's (psi1, psi2) amplitude times the target's (beta1, beta2) one,
    # so D U D^-1 is the permutation itself
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out = apply_cnot(TwoQubitState(space, {_occupations(x, y): down}), p, choice, choice)
        expected = np.zeros(space.cutoff**4, dtype=complex)
        expected[basis_index(space, _occupations(x, y ^ x))] = down
        assert_within_ulps(dense(out), expected, abs(down))


@settings(deadline=None)
@given(
    dressed_points(),
    moderate_complex,
    moderate_complex_or_zero,
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
    st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)
def test_the_universal_set_keeps_its_algebra_in_the_dressed_basis(point, c0, c1, a, b):
    space, p, choice = point
    shared = FunctionChoice(choice.psi1, choice.psi2, psi3=choice.psi1, psi4=choice.psi2)

    def dressed(c0, c1, choice):
        """c0 |0> + c1 |1> over the Hadamard's dressed basis vectors for
        ``choice``, and the largest magnitude a gate on it meets: a gate mixes
        the two coefficients, and each lands on either pattern."""
        down = qubit_state(0, space, p, FunctionChoice(choice.psi3, choice.psi4))
        up = qubit_state(1, space, p, choice)
        (a_down,), (a_up,) = down.amplitudes.values(), up.amplitudes.values()
        amplitudes = {_occupations(0): c0 * a_down, _occupations(1): c1 * a_up}
        return OscillatorPairState(space, amplitudes), max(abs(c0), abs(c1)) * max(a_down, a_up)

    # H H = I, in the basis the Hadamard's own (psi3, psi4) and (psi1, psi2) dress
    state, scale = dressed(c0, c1, choice)
    twice = apply_hadamard(apply_hadamard(state, p, choice), p, choice)
    assert_within_ulps(dense(twice), dense(state), scale)
    # H X H = P(pi), in the basis the flip and the Hadamard share: the flip
    # dresses both of its basis vectors by (psi1, psi2)
    state, scale = dressed(c0, c1, shared)
    hxh = apply_hadamard(apply_not(apply_hadamard(state, p, shared), p, shared), p, shared)
    assert_within_ulps(dense(hxh), dense(apply_phase_shift(state, math.pi)), scale)
    # P(a) P(b) = P(a + b); the angles stay within 2 pi, so a + b rounds by an ulp of 4 pi
    phased = apply_phase_shift(apply_phase_shift(state, a), b)
    assert_within_ulps(dense(phased), dense(apply_phase_shift(state, a + b)), scale)
    # CNOT CNOT = I on all four dressed basis states, and exactly on the plain ones
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert apply_cnot(apply_cnot(two_qubit_state(x, y, space))) == two_qubit_state(x, y, space)
        basis = two_qubit_state(x, y, space, p, choice, choice)
        twice = apply_cnot(apply_cnot(basis, p, choice, choice), p, choice, choice)
        ((pattern, amp),) = basis.amplitudes.items()
        assert twice.amplitudes.keys() == {pattern}
        if x == 0 or _coefficient(complex(amp), amp) == 1:
            assert twice.amplitudes[pattern] == amp
        else:
            # the complex128 quotient of amp by itself is 1 - 2**-53 here
            # (ROADMAP item 1's schema 2 makes it exactly 1)
            assert abs(twice.amplitudes[pattern] - amp) <= 2 * math.ulp(amp)


def oracle_not_residual(p, choice):
    """The flip condition with its targets written out at both occupations."""
    q = p.q
    residual = 0.0
    for n_hat in (0, 1):
        target_num = q ** (-n_hat) - n_hat * q ** (-n_hat) - n_hat * q ** (n_hat - 1)
        target_den = q**n_hat - n_hat * q**n_hat - n_hat * q ** (1 - n_hat)
        residual = max(residual, abs(choice.psi1 / choice.psi2 - target_num / target_den))
    return residual


def oracle_cnot_residual(p, beta1, beta2):
    """Both sides of the target-swap condition as products of written-out
    factors; zeroth powers are 1 and their bases are never evaluated."""
    if not (beta1 > 0 and beta2 > 0):
        raise ValueError(f"beta1 and beta2 must be positive, got {beta1!r}, {beta2!r}")
    q = p.q
    denom = q - 1.0 / q

    def factor(argument, exponent):
        if exponent == 0.0:
            return 1.0
        base = (q**argument * beta1 - q ** (-argument) * beta2) / (argument * denom)
        if base < 0:
            raise RadicandError(
                f"negative radicand in swap-condition factor at argument {argument} "
                f"with beta1={beta1}, beta2={beta2}"
            )
        return base**exponent

    residual = 0.0
    for k in (0, 1):
        k_hat = k
        lhs = factor(k_hat, k / 2) * factor(1 - k_hat + k, (1 - k) / 2)
        rhs = factor(1 - k_hat, (1 - k) / 2) * factor(k_hat - 1 + k, k / 2)
        residual = max(residual, abs(lhs - rhs))
    return residual


def outcome(call):
    """The bits of a call's residual, or the type and text of what it raised."""
    try:
        return bits(call())
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def condition_points(draw):
    s = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
    value = st.one_of(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-700.0, max_value=700.0).map(math.exp),
        st.sampled_from((1e308, 1e-308, 5e-324)),
    )
    a, b = draw(value), draw(value)
    if draw(st.booleans()):
        # at or one ulp from beta2 = q**2 * beta1, where the CNOT radicand changes sign
        q = math.exp(s)
        edge = q * q * a
        for _ in range(draw(st.integers(0, 1))):
            edge = math.nextafter(edge, draw(st.sampled_from((0.0, math.inf))))
        if 0 < edge < math.inf:
            b = edge
    return DeformationParam(s), a, b


@settings(deadline=None)
@given(condition_points())
def test_closed_form_conditions_equal_the_written_out_ones(point):
    p, a, b = point
    choice = FunctionChoice(psi1=a, psi2=b)
    not_oracle = outcome(lambda: oracle_not_residual(p, choice))
    if not_oracle == bits(math.inf):
        # psi1/psi2 overflows; the condition report refuses an infinite residual
        not_oracle = (ValueError, "residual must be finite and nonnegative, got inf")
    assert outcome(lambda: check_not_condition(p, choice, 1e-10).residual) == not_oracle
    cnot = outcome(lambda: check_cnot_condition(p, a, b, 1e-10).residual)
    if p.q == 1.0:
        # the written-out factors divide by q - 1/q == 0; the check names s instead
        assert cnot == (ValueError, f"q = exp(s) rounds to 1 at s={p.s!r}, so q - 1/q is 0")
    else:
        assert cnot == outcome(lambda: oracle_cnot_residual(p, a, b))


@pytest.mark.parametrize("cutoff", range(2, 9))
def test_jm_state_equals_the_creation_matrix_oracle(cutoff):
    # the oracle's sqrt(n) ladder factors cancel its 1/sqrt(n1! n2!) only to
    # within one ulp; the closed form writes the exact amplitude 1
    space = TruncatedFockSpace(cutoff)
    c1, c2 = pair_creation_ops(space)
    near_one = (math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0))
    for n1 in range(cutoff):
        for n2 in range(cutoff):
            amp = dense(vacuum(space))
            for _ in range(n1):
                amp = c1 @ amp
            for _ in range(n2):
                amp = c2 @ amp
            oracle = amp / math.sqrt(math.factorial(n1) * math.factorial(n2))
            state = jm_state((n1 + n2) / 2, (n1 - n2) / 2, space)
            idx = basis_index(space, (n1, n2))
            assert state.support() == ((n1, n2),)
            assert state.nonzero_triples() == [(idx, 1.0, 0.0)]
            assert np.flatnonzero(oracle).tolist() == [idx]
            assert oracle[idx].imag == 0.0 and oracle[idx].real in near_one

