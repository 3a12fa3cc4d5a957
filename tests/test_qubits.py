import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import dense

from qdgates.fockspace import FunctionChoice, RadicandError, TruncatedFockSpace, f_value
from qdgates.qnumber import DeformationParam
from qdgates.qubits import (
    OscillatorPairState,
    TwoQubitState,
    _scientific,
    case2_consistency_table,
    jm_state,
    norm_ratio_experiment,
    occupation_from_value,
    qubit_state,
    two_qubit_state,
    vacuum,
)

SPACE = TruncatedFockSpace(4)
P_HALF = DeformationParam(0.5)


class TestBasisStates:
    def test_vacuum(self):
        v = vacuum(SPACE)
        assert v.amplitudes == {(0, 0): 1.0}
        assert v.norm() == 1.0
        assert v.support() == ((0, 0),)

    def test_vacuum_orthogonal_to_qubits(self):
        v = vacuum(SPACE)
        assert v.overlap(qubit_state(0, SPACE)) == 0.0
        assert v.overlap(qubit_state(1, SPACE)) == 0.0

    def test_up_and_down_occupations(self):
        assert qubit_state(1, SPACE).support() == ((1, 0),)
        assert qubit_state(0, SPACE).support() == ((0, 1),)
        assert qubit_state(1, SPACE).amplitudes == {(1, 0): 1.0}
        assert qubit_state(0, SPACE).amplitudes == {(0, 1): 1.0}

    @pytest.mark.parametrize("cutoff", [2, 3, 4, 6])
    def test_orthonormal_at_every_cutoff(self, cutoff):
        space = TruncatedFockSpace(cutoff)
        up = qubit_state(1, space)
        down = qubit_state(0, space)
        assert up.norm() == 1.0
        assert down.norm() == 1.0
        assert up.overlap(down) == 0.0

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            qubit_state(bad, SPACE)

    def test_amplitude_triples(self):
        # row-major at cutoff 4: (1, 0) is 1*4 + 0, (1, 0, 0, 1) is 1*64 + 1
        assert qubit_state(1, SPACE).nonzero_triples() == [(4, 1.0, 0.0)]
        quad = two_qubit_state(1, 0, SPACE)
        assert quad.nonzero_triples() == [(65, 1.0, 0.0)]

    def test_norm_and_overlap_equal_the_dense_oracle(self):
        a = OscillatorPairState(SPACE, {(0, 1): 0.6 - 0.3j, (1, 0): 0.2j, (2, 1): -1.5})
        b = OscillatorPairState(SPACE, {(1, 0): 2 + 1j, (2, 1): 0.5j, (3, 3): 4.0})
        assert a.norm() == pytest.approx(np.linalg.norm(dense(a)), rel=1e-15)
        assert a.overlap(b) == pytest.approx(np.vdot(dense(a), dense(b)), rel=1e-15)
        assert b.overlap(a) == pytest.approx(np.vdot(dense(b), dense(a)), rel=1e-15)

    @pytest.mark.parametrize("cutoff", [2, 3, 5])
    def test_triples_index_the_dense_vector(self, cutoff):
        space = TruncatedFockSpace(cutoff)
        amplitudes = {(1, 0, cutoff - 1, 1): 0.5 - 2j, (0, cutoff - 1, 1, 0): 3.0}
        state = TwoQubitState(space, {**amplitudes, (0, 0, 0, 0): 0j})
        vector = dense(state)
        assert [(i, vector[i].real, vector[i].imag) for i in np.flatnonzero(vector)] == (
            state.nonzero_triples()
        )
        assert state.support() == tuple(sorted(amplitudes))

    @pytest.mark.parametrize(
        "state_type,pattern",
        [
            (OscillatorPairState, (1, 0, 0)),
            (OscillatorPairState, (4, 0)),
            (OscillatorPairState, (0, -1)),
            (TwoQubitState, (1, 0)),
            (TwoQubitState, (0, 1, 0, 4)),
        ],
    )
    def test_rejects_patterns_outside_the_space(self, state_type, pattern):
        with pytest.raises(ValueError, match="occupations below 4"):
            state_type(SPACE, {pattern: 1.0})


class TestJmStates:
    def test_half_spin_states_are_the_qubits(self):
        assert jm_state(0.5, 0.5, SPACE) == qubit_state(1, SPACE)
        assert jm_state(0.5, -0.5, SPACE) == qubit_state(0, SPACE)

    def test_ground_state_is_vacuum(self):
        assert jm_state(0, 0, SPACE) == vacuum(SPACE)

    def test_one_zero_state(self):
        # oracle: the (1, 1) occupation basis vector with unit coefficient
        expected = np.zeros(SPACE.cutoff**2, dtype=complex)
        expected[1 * SPACE.cutoff + 1] = 1.0
        state = jm_state(1, 0, SPACE)
        assert np.allclose(dense(state), expected, atol=1e-15)

    def test_higher_tower_is_normalized(self):
        state = jm_state(1, 1, SPACE)
        assert state.support() == ((2, 0),)
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_mismatched_half_integers(self):
        with pytest.raises(ValueError):
            jm_state(0.5, 0.0, SPACE)

    def test_rejects_m_beyond_j(self):
        with pytest.raises(ValueError):
            jm_state(0.5, 1.5, SPACE)

    def test_rejects_cutoff_overflow(self):
        with pytest.raises(ValueError):
            jm_state(2.5, 1.5, SPACE)


class TestDeformedQubits:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("x", [0, 1])
    def test_unit_functions_reproduce_plain_qubits(self, s, x):
        state = qubit_state(x, SPACE, DeformationParam(s), FunctionChoice.unit())
        assert state == qubit_state(x, SPACE)

    @pytest.mark.parametrize("x", [0, 1])
    def test_shared_function_scales_by_its_square_root(self, x):
        psi = P_HALF.q
        choice = FunctionChoice(psi1=psi, psi2=psi)
        state = qubit_state(x, SPACE, P_HALF, choice)
        expected = math.sqrt(psi) * dense(qubit_state(x, SPACE))
        assert np.allclose(dense(state), expected, atol=1e-14)

    @pytest.mark.parametrize("x", [0, 1])
    def test_support_is_never_repopulated(self, x):
        plain_support = qubit_state(x, SPACE).support()
        for psi in (1.0, P_HALF.q, P_HALF.q**2, 1 / P_HALF.q):
            choice = FunctionChoice(psi1=psi, psi2=psi)
            assert qubit_state(x, SPACE, P_HALF, choice).support() == plain_support

    @pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4])
    def test_converges_to_plain_qubit_near_undeformed(self, s):
        # the only dressing factor touching a qubit level is pinned at 1,
        # so the gap is far below the linear-in-s bound
        for x in (0, 1):
            state = qubit_state(x, SPACE, DeformationParam(s), FunctionChoice.unit())
            gap = np.max(np.abs(dense(state) - dense(qubit_state(x, SPACE))))
            assert gap <= s
            assert gap < 1e-12


class TestLevelZeroDressing:
    # psi1 < psi2: the level-0 stand-in radicand is negative, but level 0
    # only ever multiplies zero amplitudes; argument 1 is valid
    CHOICE = FunctionChoice(psi1=1.0, psi2=1.2, beta1=1.0, beta2=1.2)

    @pytest.mark.parametrize("x", [0, 1])
    def test_qubit_states_need_only_argument_one(self, x):
        state = qubit_state(x, SPACE, P_HALF, self.CHOICE)
        expected = f_value(1, P_HALF, 1.0, 1.2)
        assert state.nonzero_triples() == [(SPACE.cutoff * x + 1 - x, expected, 0.0)]

    def test_two_qubit_state_needs_only_argument_one(self):
        state = two_qubit_state(0, 1, SPACE, P_HALF, self.CHOICE, self.CHOICE)
        assert state.support() == ((0, 1, 1, 0),)
        assert state.norm() == pytest.approx(f_value(1, P_HALF, 1.0, 1.2) ** 2, rel=1e-15)

    def test_negative_radicand_at_argument_one_still_raises(self):
        choice = FunctionChoice(psi1=1.0, psi2=10.0)
        for x in (0, 1):
            with pytest.raises(RadicandError, match="n=1"):
                qubit_state(x, SPACE, P_HALF, choice)


class TestTwoQubitStates:
    def test_basis_product_occupations(self):
        state = two_qubit_state(1, 0, SPACE)
        assert state.support() == ((1, 0, 0, 1),)
        assert state.amplitudes[(1, 0, 0, 1)] == 1.0
        assert two_qubit_state(0, 0, SPACE).support() == ((0, 1, 0, 1),)

    def test_unit_functions_match_basis_product(self):
        unit = FunctionChoice.unit()
        for x in (0, 1):
            for y in (0, 1):
                built = two_qubit_state(x, y, SPACE, P_HALF, unit, unit)
                assert built == two_qubit_state(x, y, SPACE)

    def test_control_and_target_scale_independently(self):
        q = P_HALF.q
        choice_a = FunctionChoice(psi1=q, psi2=q)
        choice_b = FunctionChoice(beta1=q**2, beta2=q**2)
        state = two_qubit_state(1, 1, SPACE, P_HALF, choice_a, choice_b)
        expected = math.sqrt(q) * math.sqrt(q**2)
        amp = state.amplitudes[(1, 0, 1, 0)]
        assert amp == pytest.approx(expected, rel=1e-14)
        assert state.support() == ((1, 0, 1, 0),)


class TestNormRatio:
    def test_trivial_choice_gives_unit_ratio(self):
        r = norm_ratio_experiment(P_HALF, 1.0, 1.0)
        assert r.measured == 1.0
        assert r.prediction_product == 1.0
        assert r.prediction_sqrt == 1.0

    def test_measured_follows_product_law(self):
        q = P_HALF.q
        r = norm_ratio_experiment(P_HALF, q, 1.0)
        assert abs(r.measured - q) < 1e-12
        assert abs(r.measured - math.sqrt(q)) > 0.2
        assert r.matched_law == "product"

    def test_second_grid_point(self):
        p = DeformationParam(0.3)
        psi = beta = p.q**2
        r = norm_ratio_experiment(p, psi, beta)
        assert abs(r.measured - psi * beta) < 1e-10
        assert r.matched_law == "product"
        assert r.distance_to_matched() < 1e-10

    def test_rejects_non_positive_functions(self):
        with pytest.raises(ValueError):
            norm_ratio_experiment(P_HALF, 0.0, 1.0)


@settings(deadline=None)
@given(st.floats(min_value=1e154, max_value=1e308), st.floats(min_value=1e154, max_value=1e308))
@example(8.4496e211, 1e211)  # rounds up to 8.450e+422, printed 8.45e+422
@example(8.4003e211, 1e211)  # rounds down to 8.400e+422, printed as is
@example(1e200, 1e200)  # 9.99999...e+399 rounds up to 1.e+400
def test_overflow_note_prints_as_numpy_printed_it(a, b):
    # the note used to print the longdouble product with numpy; report bytes keep its text
    expected = np.format_float_scientific(np.longdouble(a) * b, precision=3)
    assert _scientific(a, b) == expected


class TestCaseTwoBookkeeping:
    def test_table_reproduces_the_four_interpretations(self):
        rows = case2_consistency_table(P_HALF)
        assert [r.state_label for r in rows] == ["00", "01", "10", "11"]
        by_label = {r.state_label: r for r in rows}
        assert by_label["00"].psi_rule == "q^n_hat"
        assert by_label["11"].psi_rule == "q^(n_hat-1)"
        assert by_label["01"].beta_rule == "q^(n_hat-1)"
        for row in rows:
            assert row.control.n_prime == float(row.state_label[0])
            assert row.target.n_prime == float(row.state_label[1])

    def test_plain_occupation_always_exceeds_deformed(self):
        for row in case2_consistency_table(DeformationParam(0.9)):
            assert row.control.n_hat > row.control.n_prime
            assert row.target.n_hat > row.target.n_prime

    def test_row_families_evaluate_to_the_stated_values(self):
        for row in case2_consistency_table(P_HALF):
            assert row.psi_family.evaluate(P_HALF.q) == pytest.approx(row.control.psi_value)
            assert row.beta_family.evaluate(P_HALF.q) == pytest.approx(row.target.psi_value)

    def test_unit_function_collapses_to_plain_bookkeeping(self):
        occ = occupation_from_value(3, 1.0, P_HALF)
        assert occ.is_undeformed()
        assert occ.n_prime == occ.n_hat

    def test_value_and_exponent_paths_agree(self):
        occ = occupation_from_value(1, P_HALF.q, P_HALF)
        assert occ.n_prime == pytest.approx(0.0, abs=1e-12)
