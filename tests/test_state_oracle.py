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
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import libm_dressing, plain_ladder

import qdgates.gates as gates_module
import qdgates.qubits as qubits_module
import qdgates.report as report_module
from qdgates.fockspace import FunctionChoice, FunctionFamily, RadicandError, TruncatedFockSpace
from qdgates.gates import (
    _SQRT2,
    TruthTableRow,
    _basis_component,
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
    pair_index,
    quad_index,
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
    return (c1 if x == 1 else c2) @ vacuum(space).amplitudes


def oracle_deformed_qubit(x, p, g1, g2, space):
    c1, c2 = deformed_pair_creation_ops(space, p, g1, g2)
    amp = (c1 if x == 1 else c2) @ vacuum(space).amplitudes
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
            scale = amp / reference_in[quad_index(space, *_occupations(x, y))]
            state_out = scale * state(x, 1 - y)
        expected = (x, y ^ x)
        idx = quad_index(space, *_occupations(*expected))
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
    basis_down = np.kron(np.eye(space.cutoff), f_own @ a_dag) @ vacuum(space).amplitudes
    c_up = amp_up / basis_up[pair_index(space, 1, 0)]
    c_down = amp_down / basis_down[pair_index(space, 0, 1)]
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


def bits(value):
    """Every bit of an amplitude vector, a float or a truth table, signed zeros included."""
    if isinstance(value, list):
        return [
            (r.input_bits, r.expected_bits, bits(np.complex128(r.amplitude)), bits(r.off_support))
            for r in value
        ]
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


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
    assert bits(closed_form()) == bits(expected)
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
    assert_matches_oracle(
        lambda: qubit_state(x, space).amplitudes, lambda: oracle_qubit(x, space)
    )
    assert_matches_oracle(
        lambda: two_qubit_state(x, y, space).amplitudes,
        lambda: oracle_basis_two_qubit(x, y, space),
    )
    hadamard_inputs = [qubit_state(x, space)]
    if assert_matches_oracle(
        lambda: qubit_state(x, space, p, choice).amplitudes,
        lambda: oracle_deformed_qubit(x, p, choice.psi1, choice.psi2, space),
    ):
        hadamard_inputs.append(qubit_state(x, space, p, choice))
    assert_matches_oracle(
        lambda: two_qubit_state(x, y, space, p, choice, choice).amplitudes,
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
            lambda: apply_hadamard(state, p, choice).amplitudes,
            lambda: oracle_deformed_hadamard(state, p, choice),
        )


def oracle_plain_cnot_truth_table(space):
    """The plain table as before: product basis vectors through ``apply_cnot``."""
    rows = []
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        state_out = apply_cnot(two_qubit_state(x, y, space)).amplitudes
        expected = (x, y ^ x)
        idx = quad_index(space, *_occupations(*expected))
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
    amp = complex(oracle_two_qubit(1, 0, p, choice, choice, space)[quad_index(space, 1, 0, 0, 1)])
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
    out = np.zeros_like(state.amplitudes)
    if not deformed:
        out[pair_index(space, 1, 0)] = amp_down
        out[pair_index(space, 0, 1)] = amp_up
        return out
    basis_up = qubit_state(1, space, p, choice)
    basis_down = qubit_state(0, space, p, choice)
    pref_up = basis_up.amplitudes[pair_index(space, 1, 0)]
    pref_down = basis_down.amplitudes[pair_index(space, 0, 1)]
    return (
        (amp_up / pref_up) * basis_down.amplitudes + (amp_down / pref_down) * basis_up.amplitudes
    )


def forked_hadamard(state, deformed=False, p=None, choice=None):
    """The superposition gate as written before the one gate path."""
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    if not deformed:
        out = np.zeros_like(state.amplitudes)
        out[pair_index(space, 0, 1)] = (amp_down + amp_up) / _SQRT2
        out[pair_index(space, 1, 0)] = (amp_down - amp_up) / _SQRT2
        return out
    basis_up = qubit_state(1, space, p, choice).amplitudes
    own = FunctionChoice(psi1=choice.psi3, psi2=choice.psi4)
    basis_down = qubit_state(0, space, p, own).amplitudes
    c_up = amp_up / basis_up[pair_index(space, 1, 0)]
    c_down = amp_down / basis_down[pair_index(space, 0, 1)]
    return (c_down * (basis_down + basis_up) + c_up * (basis_down - basis_up)) / _SQRT2


def forked_phase(state, theta):
    space = state.space
    amp_down, amp_up = _qubit_components(state)
    out = np.zeros_like(state.amplitudes)
    out[pair_index(space, 0, 1)] = amp_down
    out[pair_index(space, 1, 0)] = cmath.exp(1j * theta) * amp_up
    return out


def forked_cnot(state, deformed=False, p=None, choice_a=None, choice_b=None):
    """The controlled flip as written before the one gate path, except that the
    deformed reference states are built, and the input divided by its
    reference amplitude, before the control-down shortcut, so that an invalid
    dressing raises for either control, as the gate now does."""
    space = state.space
    (x, y), amp = _basis_component(state)
    if deformed:
        reference_in = two_qubit_state(x, y, space, p, choice_a, choice_b)
        reference_out = two_qubit_state(x, 1 - y, space, p, choice_a, choice_b)
        scale = amp / reference_in.amplitudes[quad_index(space, *_occupations(x, y))]
    if x == 0:
        return state.amplitudes.copy()
    if not deformed:
        out = np.zeros_like(state.amplitudes)
        out[quad_index(space, *_occupations(x, 1 - y))] = amp
        return out
    return scale * reference_out.amplitudes


def gate_outcome(call):
    """The bits of a gate's amplitudes, or the type and text of what it raised
    (a numpy division by a zero amplitude raises, as warnings are errors)."""
    try:
        return bits(call())
    except (ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)


def forked_outcome(call):
    """The gate_outcome of a forked body, where its division by a zero
    amplitude (numpy's divide-by-zero, or for 0/0 invalid-value, warning) is
    the ValueError the gates now raise before dividing."""
    outcome = gate_outcome(call)
    if outcome[0] is RuntimeWarning and outcome[1] in (
        "divide by zero encountered in scalar divide",
        "invalid value encountered in scalar divide",
    ):
        return ZERO_AMPLITUDE
    return outcome


def within_one_ulp(a, b):
    pairs = ((a.real, b.real), (a.imag, b.imag))
    return all(np.all(np.abs(x - y) <= np.spacing(np.abs(y))) for x, y in pairs)


finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
finite_float = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None)
@given(qubit_points(), finite_complex, finite_complex, finite_float)
@example((TruncatedFockSpace(4), ZERO_P, ZERO_CHOICE, 0, 1), 1 + 0j, 0j, 0.0)
@example((TruncatedFockSpace(4), ZERO_P, ZERO_CHOICE, 1, 0), 2 + 1j, -1j, 0.0)
def test_one_gate_path_equals_the_forked_gate_bodies(point, down, up, theta):
    space, p, choice, x, y = point
    pair = np.zeros(space.cutoff**2, dtype=complex)
    pair[pair_index(space, 0, 1)], pair[pair_index(space, 1, 0)] = down, up
    pair_state = OscillatorPairState(space, pair)
    quad = np.zeros(space.cutoff**4, dtype=complex)
    quad[quad_index(space, *_occupations(x, y))] = down
    quad_state = TwoQubitState(space, quad)
    unit = FunctionChoice.unit()
    phased = apply_phase_shift(pair_state, theta).amplitudes
    assert bits(phased) == bits(forked_phase(pair_state, theta))
    cases = (
        (apply_not, forked_not, pair_state, (choice,), (unit,), np.array_equal),
        (apply_hadamard, forked_hadamard, pair_state, (choice,), (unit,), within_one_ulp),
        (apply_cnot, forked_cnot, quad_state, (choice, choice), (unit, unit), np.array_equal),
    )
    for gate, forked, state, choices, units, plain_agrees in cases:
        # the deformed gate keeps the deformed body's floating-point steps
        assert gate_outcome(lambda: gate(state, p, *choices).amplitudes) == forked_outcome(
            lambda: forked(state, True, p, *choices)
        )
        # a plain gate is that body at unit dressing, whose amplitudes are exactly 1.0
        plain = gate_outcome(lambda: gate(state).amplitudes)
        assert plain == gate_outcome(lambda: forked(state, True, p, *units))
        # and the plain body's values, wherever that body gave finite ones; a
        # zero may change sign, and the plain superposition is now rounded as
        # the deformed one always was, x times the rounded 1/sqrt(2).  numpy
        # flags a spurious overflow in some complex products near the float64
        # limit; the comparison above covers that, this one compares values.
        try:
            expected = forked(state)
        except ValueError as exc:
            assert plain == (type(exc), str(exc))
            continue
        if np.all(np.isfinite(expected)):
            with np.errstate(over="ignore"):
                assert plain_agrees(gate(state).amplitudes, expected)


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
            amp = vacuum(space).amplitudes
            for _ in range(n1):
                amp = c1 @ amp
            for _ in range(n2):
                amp = c2 @ amp
            oracle = amp / math.sqrt(math.factorial(n1) * math.factorial(n2))
            state = jm_state((n1 + n2) / 2, (n1 - n2) / 2, space)
            idx = pair_index(space, n1, n2)
            assert state.support() == ((n1, n2),)
            assert state.nonzero_triples() == [(idx, 1.0, 0.0)]
            assert np.flatnonzero(oracle).tolist() == [idx]
            assert oracle[idx].imag == 0.0 and oracle[idx].real in near_one

