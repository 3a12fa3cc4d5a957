import math

import numpy as np
import pytest

from qdgates.fockspace import FunctionChoice, RadicandError, TruncatedFockSpace
from qdgates.gates import (
    Gate,
    apply_cnot,
    apply_hadamard,
    apply_not,
    apply_phase_shift,
    check_cnot_condition,
    check_not_condition,
    cnot_truth_table,
)
from qdgates.qnumber import DeformationParam
from qdgates.qubits import (
    OscillatorPairState,
    TwoQubitState,
    basis_two_qubit_state,
    deformed_qubit_state,
    pair_index,
    quad_index,
    qubit_state,
    two_qubit_state,
)

SPACE = TruncatedFockSpace(4)
P_HALF = DeformationParam(0.5)
S_GRID = (0.1, 0.5, 0.9)


def superposition(c0, c1):
    amp = c0 * qubit_state(0, SPACE).amplitudes + c1 * qubit_state(1, SPACE).amplitudes
    return OscillatorPairState(SPACE, amp)


# each gate on a basis input x, plain or dressed by p and one choice
def _flip(x, p, choice):
    return apply_not(qubit_state(x, SPACE), p, choice)


def _superpose(x, p, choice):
    return apply_hadamard(qubit_state(x, SPACE), p, choice)


def _controlled_flip(x, p, choice):
    return apply_cnot(basis_two_qubit_state(x, 1 - x, SPACE), p, choice, choice)


def _table(x, p, choice):
    return cnot_truth_table(p, choice, choice)


GATE_IDS = ["not", "hadamard", "cnot", "truth-table"]


class TestNotGate:
    def test_flips_both_basis_states(self):
        assert np.array_equal(
            apply_not(qubit_state(0, SPACE)).amplitudes, qubit_state(1, SPACE).amplitudes
        )
        assert np.array_equal(
            apply_not(qubit_state(1, SPACE)).amplitudes, qubit_state(0, SPACE).amplitudes
        )

    def test_involution(self):
        for x in (0, 1):
            twice = apply_not(apply_not(qubit_state(x, SPACE)))
            assert np.array_equal(twice.amplitudes, qubit_state(x, SPACE).amplitudes)

    def test_extends_linearly(self):
        state = superposition(0.6, 0.8j)
        flipped = apply_not(state)
        assert flipped.amplitudes[pair_index(SPACE, 1, 0)] == 0.6
        assert flipped.amplitudes[pair_index(SPACE, 0, 1)] == 0.8j

    def test_rejects_support_outside_qubit_levels(self):
        amp = np.zeros(SPACE.cutoff**2, dtype=complex)
        amp[pair_index(SPACE, 2, 0)] = 1.0
        with pytest.raises(ValueError, match="outside the qubit"):
            apply_not(OscillatorPairState(SPACE, amp))

    def test_deformed_flip_swaps_dressed_basis_states(self):
        choice = FunctionChoice(psi1=P_HALF.q, psi2=P_HALF.q)
        up = deformed_qubit_state(1, P_HALF, choice, SPACE)
        flipped = apply_not(up, p=P_HALF, choice=choice)
        down = deformed_qubit_state(0, P_HALF, choice, SPACE)
        assert np.allclose(flipped.amplitudes, down.amplitudes, atol=1e-15)

    def test_deformed_involution(self):
        choice = FunctionChoice(psi1=2.0, psi2=2.0)
        state = deformed_qubit_state(0, P_HALF, choice, SPACE)
        twice = apply_not(apply_not(state, P_HALF, choice), P_HALF, choice)
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-15)


class TestNotCondition:
    @pytest.mark.parametrize("s", S_GRID)
    def test_realizable_for_shared_functions(self, s):
        p = DeformationParam(s)
        for value in (1.0, p.q, p.q**3):
            rep = check_not_condition(p, FunctionChoice(psi1=value, psi2=value), 1e-10)
            assert rep.realizable
            assert rep.residual < 1e-13
            assert rep.gate is Gate.NOT

    @pytest.mark.parametrize("s", S_GRID)
    def test_unequal_functions_fail_loudly(self, s):
        rep = check_not_condition(DeformationParam(s), FunctionChoice(psi1=2.0, psi2=1.0), 1e-10)
        assert not rep.realizable
        assert rep.residual > 1e-3

    def test_verdict_survives_common_rescaling(self):
        for c in (1e-6, 1.0, 1e6):
            equal = check_not_condition(
                P_HALF, FunctionChoice(psi1=3.0 * c, psi2=3.0 * c), 1e-10
            )
            unequal = check_not_condition(
                P_HALF, FunctionChoice(psi1=2.0 * c, psi2=1.0 * c), 1e-10
            )
            assert equal.realizable
            assert not unequal.realizable


class TestHadamard:
    def test_down_goes_to_plus(self):
        out = apply_hadamard(qubit_state(0, SPACE))
        root = 1 / math.sqrt(2)
        assert out.amplitudes[pair_index(SPACE, 0, 1)] == pytest.approx(root)
        assert out.amplitudes[pair_index(SPACE, 1, 0)] == pytest.approx(root)

    def test_up_goes_to_minus(self):
        out = apply_hadamard(qubit_state(1, SPACE))
        root = 1 / math.sqrt(2)
        assert out.amplitudes[pair_index(SPACE, 0, 1)] == pytest.approx(root)
        assert out.amplitudes[pair_index(SPACE, 1, 0)] == pytest.approx(-root)

    @pytest.mark.parametrize("x", [0, 1])
    def test_involution_within_tolerance(self, x):
        state = qubit_state(x, SPACE)
        twice = apply_hadamard(apply_hadamard(state))
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-13

    def test_outputs_are_orthonormal(self):
        h0 = apply_hadamard(qubit_state(0, SPACE))
        h1 = apply_hadamard(qubit_state(1, SPACE))
        assert abs(h0.overlap(h1)) < 1e-13
        assert h0.norm() == pytest.approx(1.0, abs=1e-13)
        assert h1.norm() == pytest.approx(1.0, abs=1e-13)

    def test_deformed_superposes_dressed_basis_vectors(self):
        choice = FunctionChoice(psi1=P_HALF.q, psi2=P_HALF.q)
        down = deformed_qubit_state(0, P_HALF, choice, SPACE)
        up = deformed_qubit_state(1, P_HALF, choice, SPACE)
        out = apply_hadamard(down, p=P_HALF, choice=choice)
        expected = (down.amplitudes + up.amplitudes) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_deformed_involution(self):
        choice = FunctionChoice(psi1=2.0, psi2=2.0)
        state = deformed_qubit_state(1, P_HALF, choice, SPACE)
        twice = apply_hadamard(apply_hadamard(state, P_HALF, choice), P_HALF, choice)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-13


class TestPhaseShift:
    def test_down_state_untouched(self):
        out = apply_phase_shift(qubit_state(0, SPACE), math.pi / 3)
        assert np.array_equal(out.amplitudes, qubit_state(0, SPACE).amplitudes)

    def test_pi_negates_up_state(self):
        out = apply_phase_shift(qubit_state(1, SPACE), math.pi)
        assert np.allclose(out.amplitudes, -qubit_state(1, SPACE).amplitudes, atol=1e-15)

    def test_zero_angle_is_identity(self):
        out = apply_phase_shift(qubit_state(1, SPACE), 0.0)
        assert np.array_equal(out.amplitudes, qubit_state(1, SPACE).amplitudes)

    def test_norm_preserved_on_angle_grid(self):
        state = superposition(1 / math.sqrt(2), 1 / math.sqrt(2))
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            out = apply_phase_shift(state, float(theta))
            assert abs(out.norm() - state.norm()) < 1e-13

    def test_phase_lands_on_up_component(self):
        state = superposition(0.6, 0.8)
        out = apply_phase_shift(state, math.pi / 2)
        assert out.amplitudes[pair_index(SPACE, 1, 0)] == pytest.approx(0.8j, abs=1e-15)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            apply_phase_shift(qubit_state(1, SPACE), math.nan)


class TestCnotGate:
    def test_truth_table_transitions(self):
        for (x, y), expected in (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))):
            out = apply_cnot(basis_two_qubit_state(x, y, SPACE))
            assert out.support() == basis_two_qubit_state(*expected, SPACE).support()
            assert out.amplitudes[np.nonzero(out.amplitudes)[0][0]] == 1.0

    def test_scaled_input_keeps_its_coefficient(self):
        state = basis_two_qubit_state(1, 0, SPACE)
        scaled = TwoQubitState(SPACE, 0.5j * state.amplitudes)
        out = apply_cnot(scaled)
        assert out.amplitudes[quad_index(SPACE, 1, 0, 1, 0)] == 0.5j

    def test_rejects_superposition_input(self):
        amp = (
            basis_two_qubit_state(0, 0, SPACE).amplitudes
            + basis_two_qubit_state(1, 0, SPACE).amplitudes
        ) / math.sqrt(2)
        with pytest.raises(ValueError, match="basis"):
            apply_cnot(TwoQubitState(SPACE, amp))

    def test_rejects_non_qubit_support(self):
        amp = np.zeros(SPACE.cutoff**4, dtype=complex)
        amp[quad_index(SPACE, 0, 0, 0, 0)] = 1.0
        with pytest.raises(ValueError, match="qubit"):
            apply_cnot(TwoQubitState(SPACE, amp))

    def test_deformed_unit_functions_match_plain_gate(self):
        unit = FunctionChoice.unit()
        for x in (0, 1):
            for y in (0, 1):
                state = two_qubit_state(x, y, P_HALF, unit, unit, SPACE)
                plain = apply_cnot(basis_two_qubit_state(x, y, SPACE))
                dressed = apply_cnot(state, p=P_HALF, choice_a=unit, choice_b=unit)
                assert np.array_equal(dressed.amplitudes, plain.amplitudes)


    @pytest.mark.parametrize("x", [0, 1])
    @pytest.mark.parametrize(
        "p,beta2,error,match",
        [
            (None, 1.0, ValueError, "needs both a DeformationParam"),
            (P_HALF, 10.0, RadicandError, "negative radicand"),
        ],
        ids=["no-deformation", "negative-radicand"],
    )
    def test_deformed_gate_checks_its_arguments_for_any_control(self, x, p, beta2, error, match):
        # a control-down input used to come back unchanged without these checks
        choice = FunctionChoice(beta1=1.0, beta2=beta2)
        with pytest.raises(error, match=match):
            apply_cnot(basis_two_qubit_state(x, 0, SPACE), p, choice, choice)


class TestCnotTruthTable:
    def test_plain_rows_have_exact_unit_amplitude(self):
        for row in cnot_truth_table():
            assert row.amplitude == 1.0
            assert row.off_support == 0.0
        assert [r.expected_bits for r in cnot_truth_table()] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_deformed_rows_share_one_scalar(self):
        choice_a = FunctionChoice(psi1=P_HALF.q, psi2=P_HALF.q)
        choice_b = FunctionChoice(beta1=P_HALF.q**2, beta2=P_HALF.q**2)
        rows = cnot_truth_table(p=P_HALF, choice_a=choice_a, choice_b=choice_b)
        magnitudes = [abs(r.amplitude) for r in rows]
        assert max(magnitudes) - min(magnitudes) < 1e-12
        assert all(r.off_support == 0.0 for r in rows)
        # the common scalar is the product of the two dressing values
        assert magnitudes[0] == pytest.approx(P_HALF.q**1.5, rel=1e-13)

    def test_a_dressing_alone_makes_the_table_deformed(self):
        # psi = 2 dresses the control by sqrt(2) at argument 1; a table given
        # the dressing without a separate switch used to read 1.0 on every row
        choice = FunctionChoice(psi1=2.0, psi2=2.0)
        rows = cnot_truth_table(p=P_HALF, choice_a=choice, choice_b=choice)
        assert [abs(r.amplitude) for r in rows] == pytest.approx([math.sqrt(2)] * 4, rel=1e-15)
        assert all(r.off_support == 0.0 for r in rows)


class TestLevelZeroDressing:
    # psi1 < psi2 makes the level-0 stand-in radicand negative; the deformed
    # gates only meet the dressing at argument 1, which is valid here
    CHOICE = FunctionChoice(psi1=1.0, psi2=1.2, beta1=1.0, beta2=1.2)

    def test_deformed_not_and_hadamard(self):
        down = deformed_qubit_state(0, P_HALF, self.CHOICE, SPACE)
        up = deformed_qubit_state(1, P_HALF, self.CHOICE, SPACE)
        flipped = apply_not(down, p=P_HALF, choice=self.CHOICE)
        assert np.allclose(flipped.amplitudes, up.amplitudes, atol=1e-15)
        out = apply_hadamard(down, p=P_HALF, choice=self.CHOICE)
        expected = (down.amplitudes + up.amplitudes) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_deformed_truth_table(self):
        rows = cnot_truth_table(P_HALF, self.CHOICE, self.CHOICE)
        magnitudes = [abs(r.amplitude) for r in rows]
        assert max(magnitudes) - min(magnitudes) < 1e-15
        assert all(r.off_support == 0.0 for r in rows)


class TestZeroAmplitudeDressing:
    # at s = 1 the argument-1 radicand of the pair (1, q**2) is exactly 0, so
    # that dressed basis vector has amplitude 0 and no coefficient on it exists
    P_ONE = DeformationParam(1.0)
    ZERO = (1.0, P_ONE.q**2)
    CASES = {
        "not": (_flip, FunctionChoice(*ZERO)),
        "hadamard-up": (_superpose, FunctionChoice(*ZERO, psi3=1.0, psi4=1.0)),
        "hadamard-down": (_superpose, FunctionChoice(psi3=ZERO[0], psi4=ZERO[1])),
        "cnot-control": (_controlled_flip, FunctionChoice(*ZERO)),
        "cnot-target": (_controlled_flip, FunctionChoice(beta1=ZERO[0], beta2=ZERO[1])),
        "truth-table": (_table, FunctionChoice(*ZERO)),
    }

    def test_the_dressing_vanishes_exactly(self):
        up = deformed_qubit_state(1, self.P_ONE, FunctionChoice(*self.ZERO), SPACE)
        assert not np.any(up.amplitudes)

    @pytest.mark.parametrize("x", [0, 1])
    @pytest.mark.parametrize("case", CASES)
    def test_gate_raises_for_either_input(self, case, x):
        gate, choice = self.CASES[case]
        with pytest.raises(ValueError, match="dressed basis vector has amplitude 0"):
            gate(x, self.P_ONE, choice)


class TestCnotCondition:
    @pytest.mark.parametrize("s", S_GRID)
    def test_identity_for_all_function_pairs(self, s):
        p = DeformationParam(s)
        values = (1 / p.q, 1.0, p.q)
        for beta1 in values:
            for beta2 in values:
                rep = check_cnot_condition(p, beta1, beta2, 1e-12)
                assert rep.realizable
                assert rep.residual < 1e-12
                assert rep.gate is Gate.CNOT

    def test_zero_radicand_pair_still_passes(self):
        # beta1 = 1/q, beta2 = q makes the dressed value vanish exactly
        rep = check_cnot_condition(P_HALF, 1 / P_HALF.q, P_HALF.q, 1e-12)
        assert rep.realizable and rep.residual == 0.0

    def test_negative_radicand_raises(self):
        with pytest.raises(RadicandError, match="beta"):
            check_cnot_condition(P_HALF, 1.0, 10.0, 1e-12)

    def test_rejects_non_positive_functions(self):
        with pytest.raises(ValueError):
            check_cnot_condition(P_HALF, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("given", ["p-only", "choice-only"])
@pytest.mark.parametrize("gate", [_flip, _superpose, _controlled_flip, _table], ids=GATE_IDS)
def test_deformed_mode_needs_parameters(gate, given):
    p, choice = (P_HALF, None) if given == "p-only" else (None, FunctionChoice.unit())
    with pytest.raises(ValueError, match="needs both a DeformationParam and a FunctionChoice"):
        gate(1, p, choice)
