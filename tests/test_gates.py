import itertools
import math

import numpy as np
import pytest
from oracle import basis_index, dense

from qdgates.audit import ConditionReport
from qdgates.fockspace import FunctionChoice, RadicandError, TruncatedFockSpace
from qdgates.gates import (
    CNOT_CONDITION,
    NOT_CONDITION,
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
    qubit_state,
    two_qubit_state,
)

SPACE = TruncatedFockSpace(4)
P_HALF = DeformationParam(0.5)
S_GRID = (0.1, 0.5, 0.9)


def superposition(c0, c1):
    return OscillatorPairState(SPACE, {(0, 1): c0, (1, 0): c1})


# each gate on a basis input x, plain or dressed by p and one choice
def _flip(x, p, choice):
    return apply_not(qubit_state(x, SPACE), p, choice)


def _superpose(x, p, choice):
    return apply_hadamard(qubit_state(x, SPACE), p, choice)


def _controlled_flip(x, p, choice):
    return apply_cnot(two_qubit_state(x, 1 - x, SPACE), p, choice, choice)


def _table(x, p, choice):
    return cnot_truth_table(p, choice, choice)


# each state on a basis label x, plain or dressed by p and one choice
def _qubit(x, p, choice):
    return qubit_state(x, SPACE, p, choice)


def _two_qubit(x, p, choice):
    return two_qubit_state(x, 1 - x, SPACE, p, choice, choice)


GATE_IDS = ["not", "hadamard", "cnot", "truth-table"]


class TestNotGate:
    def test_flips_both_basis_states(self):
        assert np.array_equal(
            dense(apply_not(qubit_state(0, SPACE))), dense(qubit_state(1, SPACE))
        )
        assert np.array_equal(
            dense(apply_not(qubit_state(1, SPACE))), dense(qubit_state(0, SPACE))
        )

    def test_involution(self):
        for x in (0, 1):
            twice = apply_not(apply_not(qubit_state(x, SPACE)))
            assert np.array_equal(dense(twice), dense(qubit_state(x, SPACE)))

    def test_extends_linearly(self):
        state = superposition(0.6, 0.8j)
        flipped = apply_not(state)
        assert flipped.amplitudes[(1, 0)] == 0.6
        assert flipped.amplitudes[(0, 1)] == 0.8j

    def test_rejects_support_outside_qubit_levels(self):
        with pytest.raises(ValueError, match="outside the qubit"):
            apply_not(OscillatorPairState(SPACE, {(2, 0): 1.0}))

    def test_deformed_flip_swaps_dressed_basis_states(self):
        choice = FunctionChoice(psi1=P_HALF.q, psi2=P_HALF.q)
        up = qubit_state(1, SPACE, P_HALF, choice)
        flipped = apply_not(up, p=P_HALF, choice=choice)
        down = qubit_state(0, SPACE, P_HALF, choice)
        assert np.allclose(dense(flipped), dense(down), atol=1e-15)

    def test_deformed_involution(self):
        choice = FunctionChoice(psi1=2.0, psi2=2.0)
        state = qubit_state(0, SPACE, P_HALF, choice)
        twice = apply_not(apply_not(state, P_HALF, choice), P_HALF, choice)
        assert np.allclose(dense(twice), dense(state), atol=1e-15)


class TestNotCondition:
    @pytest.mark.parametrize("s", S_GRID)
    def test_realizable_for_shared_functions(self, s):
        p = DeformationParam(s)
        for value in (1.0, p.q, p.q**3):
            rep = check_not_condition(p, FunctionChoice(psi1=value, psi2=value), 1e-10)
            assert rep.passed
            assert rep.residual < 1e-13
            assert isinstance(rep, ConditionReport) and rep.condition_id == NOT_CONDITION

    @pytest.mark.parametrize("s", S_GRID)
    def test_unequal_functions_fail_loudly(self, s):
        rep = check_not_condition(DeformationParam(s), FunctionChoice(psi1=2.0, psi2=1.0), 1e-10)
        assert not rep.passed
        assert rep.residual > 1e-3

    def test_verdict_survives_common_rescaling(self):
        for c in (1e-6, 1.0, 1e6):
            equal = check_not_condition(
                P_HALF, FunctionChoice(psi1=3.0 * c, psi2=3.0 * c), 1e-10
            )
            unequal = check_not_condition(
                P_HALF, FunctionChoice(psi1=2.0 * c, psi2=1.0 * c), 1e-10
            )
            assert equal.passed
            assert not unequal.passed

    def test_overflowing_ratio_raises(self):
        # psi1/psi2 is inf here; the report used to carry that inf as its residual
        with pytest.raises(ValueError, match="residual must be finite and nonnegative, got inf"):
            check_not_condition(P_HALF, FunctionChoice(psi1=1e308, psi2=0.5), 1e-10)


class TestHadamard:
    def test_down_goes_to_plus(self):
        out = apply_hadamard(qubit_state(0, SPACE))
        root = 1 / math.sqrt(2)
        assert out.amplitudes[(0, 1)] == pytest.approx(root)
        assert out.amplitudes[(1, 0)] == pytest.approx(root)

    def test_up_goes_to_minus(self):
        out = apply_hadamard(qubit_state(1, SPACE))
        root = 1 / math.sqrt(2)
        assert out.amplitudes[(0, 1)] == pytest.approx(root)
        assert out.amplitudes[(1, 0)] == pytest.approx(-root)

    @pytest.mark.parametrize("x", [0, 1])
    def test_involution_within_tolerance(self, x):
        state = qubit_state(x, SPACE)
        twice = apply_hadamard(apply_hadamard(state))
        assert np.max(np.abs(dense(twice) - dense(state))) < 1e-13

    def test_outputs_are_orthonormal(self):
        h0 = apply_hadamard(qubit_state(0, SPACE))
        h1 = apply_hadamard(qubit_state(1, SPACE))
        assert abs(h0.overlap(h1)) < 1e-13
        assert h0.norm() == pytest.approx(1.0, abs=1e-13)
        assert h1.norm() == pytest.approx(1.0, abs=1e-13)

    def test_deformed_superposes_dressed_basis_vectors(self):
        choice = FunctionChoice(psi1=P_HALF.q, psi2=P_HALF.q)
        down = qubit_state(0, SPACE, P_HALF, choice)
        up = qubit_state(1, SPACE, P_HALF, choice)
        out = apply_hadamard(down, p=P_HALF, choice=choice)
        expected = (dense(down) + dense(up)) / math.sqrt(2)
        assert np.allclose(dense(out), expected, atol=1e-14)

    def test_deformed_involution(self):
        choice = FunctionChoice(psi1=2.0, psi2=2.0)
        state = qubit_state(1, SPACE, P_HALF, choice)
        twice = apply_hadamard(apply_hadamard(state, P_HALF, choice), P_HALF, choice)
        assert np.max(np.abs(dense(twice) - dense(state))) < 1e-13


class TestPhaseShift:
    def test_down_state_untouched(self):
        out = apply_phase_shift(qubit_state(0, SPACE), math.pi / 3)
        assert np.array_equal(dense(out), dense(qubit_state(0, SPACE)))

    def test_pi_negates_up_state(self):
        out = apply_phase_shift(qubit_state(1, SPACE), math.pi)
        assert np.allclose(dense(out), -dense(qubit_state(1, SPACE)), atol=1e-15)

    def test_zero_angle_is_identity(self):
        out = apply_phase_shift(qubit_state(1, SPACE), 0.0)
        assert np.array_equal(dense(out), dense(qubit_state(1, SPACE)))

    def test_norm_preserved_on_angle_grid(self):
        state = superposition(1 / math.sqrt(2), 1 / math.sqrt(2))
        for theta in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            out = apply_phase_shift(state, float(theta))
            assert abs(out.norm() - state.norm()) < 1e-13

    def test_phase_lands_on_up_component(self):
        state = superposition(0.6, 0.8)
        out = apply_phase_shift(state, math.pi / 2)
        assert out.amplitudes[(1, 0)] == pytest.approx(0.8j, abs=1e-15)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            apply_phase_shift(qubit_state(1, SPACE), math.nan)


class TestCnotGate:
    def test_truth_table_transitions(self):
        for (x, y), expected in (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))):
            out = apply_cnot(two_qubit_state(x, y, SPACE))
            assert out.support() == two_qubit_state(*expected, SPACE).support()
            assert out.amplitudes[out.support()[0]] == 1.0

    def test_scaled_input_keeps_its_coefficient(self):
        scaled = TwoQubitState(SPACE, {(1, 0, 0, 1): 0.5j})
        out = apply_cnot(scaled)
        assert out.amplitudes == {(1, 0, 1, 0): 0.5j}

    def test_rejects_superposition_input(self):
        amp = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="basis"):
            apply_cnot(TwoQubitState(SPACE, {(0, 1, 0, 1): amp, (1, 0, 0, 1): amp}))

    def test_rejects_non_qubit_support(self):
        with pytest.raises(ValueError, match="qubit"):
            apply_cnot(TwoQubitState(SPACE, {(0, 0, 0, 0): 1.0}))

    @pytest.mark.parametrize("cutoff", [2, 3])
    def test_decodes_exactly_the_four_qubit_patterns(self, cutoff):
        # every single-support input: the four qubit patterns, each mapped to
        # its flip with the amplitude kept, and nothing else
        flips = {
            (0, 1, 0, 1): (0, 1, 0, 1),
            (0, 1, 1, 0): (0, 1, 1, 0),
            (1, 0, 0, 1): (1, 0, 1, 0),
            (1, 0, 1, 0): (1, 0, 0, 1),
        }
        space = TruncatedFockSpace(cutoff)
        accepted = []
        for pattern in itertools.product(range(cutoff), repeat=4):
            state = TwoQubitState(space, {pattern: 0.5 - 2j})
            if pattern not in flips:
                with pytest.raises(ValueError, match="outside the qubit patterns"):
                    apply_cnot(state)
                continue
            accepted.append(pattern)
            out = apply_cnot(state)
            assert out.nonzero_triples() == [(basis_index(space, flips[pattern]), 0.5, -2.0)]
        assert sorted(accepted) == sorted(flips)

    def test_deformed_unit_functions_match_plain_gate(self):
        unit = FunctionChoice.unit()
        for x in (0, 1):
            for y in (0, 1):
                state = two_qubit_state(x, y, SPACE, P_HALF, unit, unit)
                plain = apply_cnot(two_qubit_state(x, y, SPACE))
                dressed = apply_cnot(state, p=P_HALF, choice_a=unit, choice_b=unit)
                assert np.array_equal(dense(dressed), dense(plain))


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
            apply_cnot(two_qubit_state(x, 0, SPACE), p, choice, choice)


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
        down = qubit_state(0, SPACE, P_HALF, self.CHOICE)
        up = qubit_state(1, SPACE, P_HALF, self.CHOICE)
        flipped = apply_not(down, p=P_HALF, choice=self.CHOICE)
        assert np.allclose(dense(flipped), dense(up), atol=1e-15)
        out = apply_hadamard(down, p=P_HALF, choice=self.CHOICE)
        expected = (dense(down) + dense(up)) / math.sqrt(2)
        assert np.allclose(dense(out), expected, atol=1e-15)

    def test_deformed_truth_table(self):
        rows = cnot_truth_table(P_HALF, self.CHOICE, self.CHOICE)
        magnitudes = [abs(r.amplitude) for r in rows]
        assert max(magnitudes) - min(magnitudes) < 1e-15
        assert all(r.off_support == 0.0 for r in rows)


class TestZeroAmplitudeDressing:
    # at s = 1 the argument-1 radicand of the pair (1, q**2) is exactly 0, so
    # that dressed basis vector would have amplitude 0: no state or
    # coefficient on it exists
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

    def test_the_dressed_states_raise(self):
        # they used to come back as all-zero vectors with no support
        control = FunctionChoice(*self.ZERO)
        target = FunctionChoice(beta1=self.ZERO[0], beta2=self.ZERO[1])
        unit = FunctionChoice.unit()
        builds = (
            lambda x: qubit_state(x, SPACE, self.P_ONE, control),
            lambda x: two_qubit_state(x, 1 - x, SPACE, self.P_ONE, control, unit),
            lambda x: two_qubit_state(x, 1 - x, SPACE, self.P_ONE, unit, target),
        )
        for build in builds:
            for x in (0, 1):
                with pytest.raises(ValueError, match="dressed basis vector has amplitude 0"):
                    build(x)

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
                assert rep.passed
                assert rep.residual < 1e-12
                assert isinstance(rep, ConditionReport) and rep.condition_id == CNOT_CONDITION

    def test_zero_radicand_pair_still_passes(self):
        # beta1 = 1/q, beta2 = q makes the dressed value vanish exactly
        rep = check_cnot_condition(P_HALF, 1 / P_HALF.q, P_HALF.q, 1e-12)
        assert rep.passed and rep.residual == 0.0

    def test_negative_radicand_raises(self):
        with pytest.raises(RadicandError, match="beta"):
            check_cnot_condition(P_HALF, 1.0, 10.0, 1e-12)

    def test_rejects_non_positive_functions(self):
        with pytest.raises(ValueError):
            check_cnot_condition(P_HALF, 0.0, 1.0, 1e-12)


@pytest.mark.parametrize("given", ["p-only", "choice-only"])
@pytest.mark.parametrize(
    "gate",
    [_flip, _superpose, _controlled_flip, _table, _qubit, _two_qubit],
    ids=[*GATE_IDS, "qubit-state", "two-qubit-state"],
)
def test_deformed_mode_needs_parameters(gate, given):
    p, choice = (P_HALF, None) if given == "p-only" else (None, FunctionChoice.unit())
    with pytest.raises(ValueError, match="needs both a DeformationParam and a FunctionChoice"):
        gate(1, p, choice)
