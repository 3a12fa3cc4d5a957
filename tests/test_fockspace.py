import math
import re

import numpy as np
import pytest
from oracle import band_matrices, longdouble_dressing, plain_ladder

from qdgates.audit import ALGEBRA_CHECK_IDS, algebra_residuals, ladder_band
from qdgates.fockspace import (
    FunctionChoice,
    FunctionFamily,
    RadicandError,
    TruncatedFockSpace,
    f_value,
)
from qdgates.qnumber import DeformationParam, q_number

# Frozen from direct evaluation: sqrt((q + 1/q)/2) and sqrt(s/sinh(s)) at s = 0.5
F_AT_TWO = 1.0618973421222886
F_AT_ZERO_LIMIT = 0.9795495779527812


class TestSpaceAndLadder:
    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            TruncatedFockSpace(1)

    def test_ladder_matrix_entries(self):
        a, a_dag, n_hat = plain_ladder(TruncatedFockSpace(4))
        assert a_dag[1, 0] == 1.0
        assert a_dag[2, 1] == pytest.approx(math.sqrt(2), abs=1e-15)
        assert np.array_equal(np.diag(n_hat), [0.0, 1.0, 2.0, 3.0])

    def test_creation_is_conjugate_transpose(self):
        a, a_dag, _ = plain_ladder(TruncatedFockSpace(7))
        assert np.array_equal(a_dag, a.conj().T)

    def test_ladder_band_structure(self):
        a, a_dag, n_hat = plain_ladder(TruncatedFockSpace(6))
        for mat, offset in ((a, 1), (a_dag, -1), (n_hat, 0)):
            assert np.array_equal(mat, np.diag(np.diag(mat, offset), offset))


class TestFValue:
    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_unit_functions_fix_level_one(self, s):
        assert f_value(1, DeformationParam(s), 1.0, 1.0) == 1.0

    def test_level_two_matches_q_number_oracle(self):
        p = DeformationParam(0.5)
        value = f_value(2, p, 1.0, 1.0)
        assert value == pytest.approx(math.sqrt(q_number(2, p) / 2), abs=1e-15)
        assert value == pytest.approx(F_AT_TWO, abs=1e-13)

    def test_zero_level_takes_limit_value(self):
        p = DeformationParam(0.5)
        assert f_value(0, p, 1.0, 1.0) == pytest.approx(F_AT_ZERO_LIMIT, abs=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("psi", [1.0, 2.5])
    def test_continuous_at_zero(self, s, psi):
        p = DeformationParam(s)
        assert abs(f_value(1e-8, p, psi, psi) - f_value(0, p, psi, psi)) < 1e-6

    def test_general_zero_level_evaluates_off_zero(self):
        # unequal functions: no limit exists, the value is taken just off zero
        p = DeformationParam(0.5)
        n = 1e-8
        expected = math.sqrt(
            (math.exp(n * p.s) * 2.0 - math.exp(-n * p.s) * 1.0)
            / (2 * n * math.sinh(p.s))
        )
        assert f_value(0, p, 2.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_radicand_raises_with_location(self):
        with pytest.raises(RadicandError, match="n=1"):
            f_value(1, DeformationParam(0.5), 1.0, 10.0)

    @pytest.mark.parametrize("psi1,psi2", [(1.65e308, 1.65e308), (1.65e308, 1.0)])
    def test_overflowing_radicand_raises_with_location(self, psi1, psi2):
        # psi1 * sinh(s) and q * psi1 pass the float64 limit at s = 1; the
        # square root of that inf used to be the amplitude
        message = f"overflows float64 at level n=1 with psi1={psi1}, psi2={psi2}"
        with pytest.raises(ValueError, match=re.escape(message)):
            f_value(1, DeformationParam(1.0), psi1, psi2)

    @pytest.mark.parametrize("n,psi1,psi2", [(800, 1.0, 1.0), (-800, 1.0, 2.0)])
    def test_overflowing_libm_call_raises_with_location(self, n, psi1, psi2):
        # math.sinh(800) and math.exp(800) raise OverflowError, which callers
        # that catch ValueError (the CLI among them) used to let through
        message = f"overflows float64 at level n={n} with psi1={psi1}, psi2={psi2}"
        with pytest.raises(ValueError, match=re.escape(message)):
            f_value(n, DeformationParam(1.0), psi1, psi2)

    def test_negative_arguments_allowed_for_shared_function(self):
        # the shifted second-oscillator dressing evaluates below zero
        p = DeformationParam(0.5)
        assert f_value(-1, p, 3.0, 3.0) == pytest.approx(f_value(1, p, 3.0, 3.0), abs=1e-15)
        assert f_value(-2, p, 1.0, 1.0) == pytest.approx(f_value(2, p, 1.0, 1.0), abs=1e-15)


class TestDeformedLadderOps:
    def test_products_reproduce_q_numbers(self):
        # a_q+ a_q carries [n]; a_q a_q+ carries [n+1] away from the top level
        space = TruncatedFockSpace(8)
        for s in (0.1, 0.5):
            p = DeformationParam(s)
            a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
            lower = np.diag(a_q_dag @ a_q)
            upper = np.diag(a_q @ a_q_dag)
            for n in range(space.cutoff):
                assert abs(lower[n] - q_number(n, p)) < 1e-13
            for n in range(space.cutoff - 1):
                assert abs(upper[n] - q_number(n + 1, p)) < 1e-13

    def test_undeformed_limit_recovers_plain_ladder(self):
        space = TruncatedFockSpace(6)
        p = DeformationParam(1e-9)
        a, a_dag, _ = plain_ladder(space)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
        assert np.max(np.abs(a_q - a)) < 1e-6
        assert np.max(np.abs(a_q_dag - a_dag)) < 1e-6

    def test_number_operator_shift(self):
        space = TruncatedFockSpace(5)
        p = DeformationParam(0.5)
        _, _, n_def = band_matrices(space, p, p.q, p.q)
        assert np.allclose(np.diag(n_def), [-1.0, 0.0, 1.0, 2.0, 3.0], atol=1e-12)
        # real diagonal, hence self-adjoint
        assert np.array_equal(n_def, n_def.conj().T)

    def test_adjoint_pair_for_shared_function(self):
        space = TruncatedFockSpace(6)
        p = DeformationParam(0.7)
        a_q, a_q_dag, _ = band_matrices(space, p, 2.0, 2.0)
        assert np.array_equal(a_q_dag, a_q.conj().T)

    def test_longdouble_pipeline(self):
        space = TruncatedFockSpace(16)
        p = DeformationParam(0.9)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.0)
        assert a_q.dtype == np.longdouble
        lower = np.diag(a_q_dag @ a_q)
        s = np.longdouble(p.s)
        for n in range(space.cutoff):
            reference = np.sinh(s * n) / np.sinh(s)
            assert abs(float(lower[n] - reference)) < 1e-13


class TestLadderBand:
    def test_band_entries(self):
        # v[n-1] = sqrt(n) F(n); nu = n - ln(psi2)/s
        space = TruncatedFockSpace(7)
        p = DeformationParam(0.6)
        v, nu = ladder_band(space, p, 2.0, 3.0)
        expected_v = [math.sqrt(n) * f_value(n, p, 2.0, 3.0) for n in range(1, 7)]
        assert np.allclose(v, expected_v, rtol=1e-15, atol=0)
        assert np.allclose(nu, np.arange(7) - math.log(3.0) / p.s, rtol=1e-15, atol=1e-15)

    def test_level_zero_is_not_evaluated_when_psi1_below_psi2(self):
        # the off-zero stand-in at n=0 has a negative radicand here, but every
        # level n >= 1 is valid and F(0) multiplies only zero entries
        space = TruncatedFockSpace(16)
        p = DeformationParam(0.5)
        with pytest.raises(RadicandError, match="n=0"):
            f_value(0, p, 1.0, 1.2)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.2)
        assert np.all(np.isfinite(a_q))
        assert a_q[0, 1] == longdouble_dressing([1], p, 1.0, 1.2)[0]
        assert np.array_equal(a_q_dag, a_q.T)
        choice = FunctionChoice(psi1=1.0, psi2=1.2)
        residuals = algebra_residuals(space, p, choice, (1.0, 0.0, 1.0))
        assert len(residuals) == len(ALGEBRA_CHECK_IDS)
        assert residuals[ALGEBRA_CHECK_IDS.index("number_commutators")] <= 1e-10
        assert residuals[ALGEBRA_CHECK_IDS.index("shift_rule")] <= 1e-10

    def test_invalid_level_one_still_raises(self):
        with pytest.raises(RadicandError, match="n=1"):
            ladder_band(TruncatedFockSpace(8), DeformationParam(0.5), 1.0, 10.0)


class TestFunctionChoice:
    def test_defaults_are_undeformed_compatible(self):
        c = FunctionChoice.unit()
        assert (c.psi1, c.psi2, c.psi3, c.psi4, c.beta1, c.beta2) == (1.0,) * 6

    def test_hadamard_pair_defaults_to_first_pair(self):
        c = FunctionChoice(psi1=2.0, psi2=3.0)
        assert (c.psi3, c.psi4) == (2.0, 3.0)

    @pytest.mark.parametrize("kwargs", [{"psi1": 0.0}, {"beta2": -1.0}, {"psi4": 0.0}])
    def test_rejects_non_positive_values(self, kwargs):
        with pytest.raises(ValueError):
            FunctionChoice(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [("psi1", math.inf), ("beta1", math.inf), ("psi2", math.nan), ("psi3", True)],
    )
    def test_rejects_non_finite_and_boolean_values(self, field, value):
        # an infinite pair used to give a NOT residual of nan, and True was stored as given
        with pytest.raises(ValueError, match=f"^{field} must be finite and strictly positive"):
            FunctionChoice(**{field: value})

    def test_from_families(self):
        q = math.exp(0.5)
        c = FunctionChoice.from_families(
            FunctionFamily("power_of_q", 2.0), FunctionFamily("power_of_q", -1.0), q
        )
        assert c.psi1 == c.psi2 == pytest.approx(q**2)
        assert c.beta1 == c.beta2 == pytest.approx(1 / q)


class TestFunctionFamily:
    def test_constant_one(self):
        fam = FunctionFamily()
        assert fam.evaluate(3.7) == 1.0
        assert fam.label() == "1"

    def test_power(self):
        fam = FunctionFamily("power_of_q", -0.5)
        assert fam.evaluate(4.0) == pytest.approx(0.5)
        assert fam.label() == "q^-0.5"

    @pytest.mark.parametrize(
        "text,expected",
        [("1", 1.0), ("q", math.e), ("q^2", math.e**2), ("q^-1", 1 / math.e), ("q^0.5", math.e**0.5)],
    )
    def test_parse(self, text, expected):
        assert FunctionFamily.parse(text).evaluate(math.e) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["two", "q^", "q**2", ""])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            FunctionFamily.parse(text)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FunctionFamily("exponential", 1.0)
