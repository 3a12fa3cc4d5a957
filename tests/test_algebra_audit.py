import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import band_matrices

from qdgates.audit import (
    ConditionReport,
    check_number_commutators,
    check_number_products,
    check_qcommutator,
    check_shift_rule,
    run_algebra_checks,
)
from qdgates.fockspace import FunctionChoice, TruncatedFockSpace
from qdgates.qnumber import DeformationParam, q_number

SPACE = TruncatedFockSpace(16)
S_GRID = (0.1, 0.5, 0.9)
UNIT = FunctionChoice.unit()


def shared(value: float) -> FunctionChoice:
    return FunctionChoice(psi1=value, psi2=value)


class TestQCommutator:
    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_unit_functions(self, s):
        rep = check_qcommutator(SPACE, DeformationParam(s), UNIT, 1e-10)
        assert rep.passed and rep.residual < 1e-13

    def test_undeformed_limit_is_plain_commutator(self):
        space = TruncatedFockSpace(8)
        p = DeformationParam(1e-9)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
        defect = (a_q @ a_q_dag - a_q_dag @ a_q) - np.eye(space.cutoff)
        assert np.max(np.abs(defect[:-2, :-2])) < 1e-6

    def test_holds_at_second_grid_point(self):
        rep = check_qcommutator(SPACE, DeformationParam(0.1), UNIT, 1e-10)
        assert rep.passed

    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_shared_nonunit_function(self, s):
        p = DeformationParam(s)
        rep = check_qcommutator(SPACE, p, shared(p.q), 1e-12)
        assert rep.passed


class TestNumberCommutators:
    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_holds_for_shared_functions(self, s, value):
        rep = check_number_commutators(SPACE, DeformationParam(s), shared(value), 1e-12)
        assert rep.passed and rep.residual < 1e-13

    def test_holds_for_squared_function(self):
        p = DeformationParam(0.5)
        rep = check_number_commutators(SPACE, p, shared(p.q**2), 1e-12)
        assert rep.passed

    def test_holds_for_unequal_functions(self):
        # the identity shift in the number operator is invisible to commutators
        p = DeformationParam(0.5)
        choice = FunctionChoice(psi1=p.q**2, psi2=1.0)
        rep = check_number_commutators(SPACE, p, choice, 1e-12)
        assert rep.passed


class TestNumberProducts:
    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_unit_functions(self, s):
        rep = check_number_products(SPACE, DeformationParam(s), UNIT, 1e-10)
        assert rep.passed and rep.residual < 1e-13

    def test_fails_for_nonunit_shared_function(self):
        # level-wise scalar oracle for the mismatch between the dressed
        # products and the q-numbers of the shifted number operator
        p = DeformationParam(0.5)
        q = p.q
        d = SPACE.cutoff
        worst = 0.0
        for n in range(d - 2):
            lower = (q**n * q - q**-n * q) / (q - 1 / q)
            worst = max(worst, abs(lower - q_number(n - 1, p)))
            upper = (q ** (n + 1) * q - q ** -(n + 1) * q) / (q - 1 / q)
            worst = max(worst, abs(upper - q_number(n, p)))
        rep = check_number_products(SPACE, p, shared(q), 1e-10)
        assert not rep.passed
        assert rep.residual == pytest.approx(worst, rel=1e-10)

    def test_undeformed_limit_recovers_plain_number(self):
        space = TruncatedFockSpace(8)
        p = DeformationParam(1e-9)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
        assert np.max(np.abs(np.diag(a_q_dag @ a_q) - np.arange(space.cutoff))) < 1e-6

    def test_reciprocal_pair_still_fails_at_level_zero(self):
        # psi1 * psi2 == 1 matches every level above 0.  At level 0 a_q+ a_q
        # is 0 but [N] is [-ln(psi2)/s]; and the q-commutator, which needs
        # psi1 == psi2, meets F(1)**2 = (q psi1 - psi2/q)/(q - 1/q) against psi2
        p = DeformationParam(0.3)
        q = p.q
        choice = FunctionChoice(psi1=2.0, psi2=0.5)
        products = check_number_products(SPACE, p, choice, 1e-10)
        qcomm = check_qcommutator(SPACE, p, choice, 1e-10)
        assert products.residual == pytest.approx(math.sinh(math.log(2)) / math.sinh(0.3), rel=1e-12)
        assert qcomm.residual == pytest.approx(q * 1.5 / (q - 1 / q), rel=1e-12)
        assert (round(products.residual, 4), round(qcomm.residual, 4)) == (2.4629, 3.3246)
        assert not products.passed and not qcomm.passed


class TestShiftRule:
    @pytest.mark.parametrize("coeffs", [(0.0, 1.0), (1.0, 0.0, 1.0)])
    def test_holds_for_polynomials(self, coeffs):
        rep = check_shift_rule(SPACE, DeformationParam(0.5), UNIT, coeffs, 1e-12)
        assert rep.passed and rep.residual < 1e-12

    def test_holds_for_cubic_with_shifted_number(self):
        p = DeformationParam(0.3)
        rep = check_shift_rule(SPACE, p, shared(p.q), (0.0, 0.0, 0.0, 1.0), 1e-12)
        assert rep.passed

    def test_rejects_empty_polynomial(self):
        with pytest.raises(ValueError):
            check_shift_rule(SPACE, DeformationParam(0.5), UNIT, (), 1e-12)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            check_shift_rule(SPACE, DeformationParam(0.5), UNIT, (0.0,) * 6, 1e-12)


class TestReportContract:
    def test_all_four_pass_simultaneously(self):
        for s in S_GRID:
            reports = run_algebra_checks(SPACE, DeformationParam(s), UNIT, 1e-12)
            assert [r.condition_id for r in reports] == [
                "qcommutator",
                "number_commutators",
                "number_products",
                "shift_rule",
            ]
            assert all(r.passed for r in reports)
            assert all(r.residual < 1e-12 for r in reports)

    def test_pass_tracks_tolerance(self):
        rep = ConditionReport.from_residual(
            "qcommutator", DeformationParam(0.5), UNIT, 16, 1e-6, 1e-8
        )
        assert not rep.passed
        rep = ConditionReport.from_residual(
            "qcommutator", DeformationParam(0.5), UNIT, 16, 1e-6, 1e-3
        )
        assert rep.passed

    @given(
        residual=st.floats(min_value=0, max_value=1e3),
        tol_small=st.floats(min_value=1e-14, max_value=1.0),
        factor=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_monotone_in_tolerance(self, residual, tol_small, factor):
        p = DeformationParam(0.5)
        small = ConditionReport.from_residual("x", p, UNIT, 16, residual, tol_small)
        large = ConditionReport.from_residual("x", p, UNIT, 16, residual, tol_small * factor)
        if small.passed:
            assert large.passed

    def test_rejects_bad_residuals(self):
        p = DeformationParam(0.5)
        with pytest.raises(ValueError):
            ConditionReport.from_residual("x", p, UNIT, 16, -1.0, 1e-10)
        with pytest.raises(ValueError):
            ConditionReport.from_residual("x", p, UNIT, 16, math.inf, 1e-10)
        with pytest.raises(ValueError):
            ConditionReport.from_residual("x", p, UNIT, 16, 0.0, 0.0)

    def test_float64_overflow_names_the_longdouble_magnitude(self):
        p = DeformationParam(0.5)
        with pytest.raises(ValueError, match=r"qcommutator residual 7\.941e\+379 .*overflows float64"):
            ConditionReport.from_residual("qcommutator", p, UNIT, 1024, np.longdouble("7.941e379"), 1e-10)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            check_qcommutator(TruncatedFockSpace(3), DeformationParam(0.5), UNIT, 1e-10)
        # the shift rule checks the cutoff before its polynomial
        with pytest.raises(ValueError, match="cutoff >= 4"):
            check_shift_rule(TruncatedFockSpace(3), DeformationParam(0.5), UNIT, (), 1e-10)
