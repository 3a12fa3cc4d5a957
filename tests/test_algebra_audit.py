import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle import band_matrices, point_residuals

from qdgates.audit import (
    ALGEBRA_CHECK_IDS,
    NUMBER_COMMUTATORS,
    NUMBER_PRODUCTS,
    QCOMMUTATOR,
    SHIFT_RULE,
    _row_residual,
)
from qdgates.fockspace import FunctionChoice, TruncatedFockSpace
from qdgates.qnumber import DeformationParam, q_number
from qdgates.report import _entry

SPACE = TruncatedFockSpace(16)
S_GRID = (0.1, 0.5, 0.9)
UNIT = FunctionChoice()


def shared(value: float) -> FunctionChoice:
    return FunctionChoice(psi1=value, psi2=value)


def residual(check_id, space, p, choice):
    """One identity's raw residual, in the band precision."""
    return point_residuals(space, p, choice)[ALGEBRA_CHECK_IDS.index(check_id)]


class TestQCommutator:
    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_unit_functions(self, s):
        r = residual(QCOMMUTATOR, SPACE, DeformationParam(s), UNIT)
        assert r < 1e-13

    def test_undeformed_limit_is_plain_commutator(self):
        space = TruncatedFockSpace(8)
        p = DeformationParam(1e-9)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
        defect = (a_q @ a_q_dag - a_q_dag @ a_q) - np.eye(space.cutoff)
        assert np.max(np.abs(defect[:-2, :-2])) < 1e-6

    def test_holds_at_second_grid_point(self):
        assert residual(QCOMMUTATOR, SPACE, DeformationParam(0.1), UNIT) <= 1e-10

    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_shared_nonunit_function(self, s):
        p = DeformationParam(s)
        assert residual(QCOMMUTATOR, SPACE, p, shared(p.q)) <= 1e-12


class TestNumberCommutators:
    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_holds_for_shared_functions(self, s, value):
        r = residual(NUMBER_COMMUTATORS, SPACE, DeformationParam(s), shared(value))
        assert r < 1e-13

    def test_holds_for_squared_function(self):
        p = DeformationParam(0.5)
        assert residual(NUMBER_COMMUTATORS, SPACE, p, shared(p.q**2)) <= 1e-12

    def test_holds_for_unequal_functions(self):
        # the identity shift in the number operator is invisible to commutators
        p = DeformationParam(0.5)
        choice = FunctionChoice(psi1=p.q**2, psi2=1.0)
        assert residual(NUMBER_COMMUTATORS, SPACE, p, choice) <= 1e-12


class TestNumberProducts:
    @pytest.mark.parametrize("s", S_GRID)
    def test_holds_for_unit_functions(self, s):
        r = residual(NUMBER_PRODUCTS, SPACE, DeformationParam(s), UNIT)
        assert r < 1e-13

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
        r = residual(NUMBER_PRODUCTS, SPACE, p, shared(q))
        assert not r <= 1e-10
        assert r == pytest.approx(worst, rel=1e-10)

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
        products = residual(NUMBER_PRODUCTS, SPACE, p, choice)
        qcomm = residual(QCOMMUTATOR, SPACE, p, choice)
        assert products == pytest.approx(math.sinh(math.log(2)) / math.sinh(0.3), rel=1e-12)
        assert qcomm == pytest.approx(q * 1.5 / (q - 1 / q), rel=1e-12)
        assert (round(float(products), 4), round(float(qcomm), 4)) == (2.4629, 3.3246)
        assert not products <= 1e-10 and not qcomm <= 1e-10


class TestShiftRule:
    # the rule is probed at f(x) = x**2 + 1
    def test_holds_for_unit_functions(self):
        assert residual(SHIFT_RULE, SPACE, DeformationParam(0.5), UNIT) < 1e-12

    def test_holds_with_shifted_number(self):
        # psi = q shifts the number operator's diagonal down by one level
        p = DeformationParam(0.3)
        assert residual(SHIFT_RULE, SPACE, p, shared(p.q)) <= 1e-12


class TestReportContract:
    def test_all_four_pass_simultaneously(self):
        assert ALGEBRA_CHECK_IDS == (
            "qcommutator",
            "number_commutators",
            "number_products",
            "shift_rule",
        )
        for s in S_GRID:
            residuals = point_residuals(SPACE, DeformationParam(s), UNIT)
            assert len(residuals) == len(ALGEBRA_CHECK_IDS)
            assert all(r < 1e-12 for r in residuals)

    def test_pass_tracks_tolerance(self):
        row = _entry("qcommutator", 16, 1e-8, "", lambda: 1e-6)
        assert not row["pass"]
        row = _entry("qcommutator", 16, 1e-3, "", lambda: 1e-6)
        assert row["pass"]

    @given(
        residual=st.floats(min_value=0, max_value=1e3),
        tol_small=st.floats(min_value=1e-14, max_value=1.0),
        factor=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_monotone_in_tolerance(self, residual, tol_small, factor):
        small = _entry("x", 16, tol_small, "", lambda: residual)
        large = _entry("x", 16, tol_small * factor, "", lambda: residual)
        if small["pass"]:
            assert large["pass"]

    def test_rejects_bad_residuals(self):
        for bad in (-1.0, math.inf):
            row = _entry("x", 16, 1.0, "", lambda: bad)
            assert row["residual"] == -1.0 and not row["pass"]
            assert row["note"] == f"error: residual must be finite and nonnegative, got {bad!r}"

    def test_float64_overflow_names_the_longdouble_magnitude(self):
        row = (np.longdouble("7.941e379"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"qcommutator residual 7\.941e\+379 .*overflows float64"):
            _row_residual(row, ALGEBRA_CHECK_IDS.index(QCOMMUTATOR))

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError, match="cutoff >= 4"):
            point_residuals(TruncatedFockSpace(3), DeformationParam(0.5), UNIT)
