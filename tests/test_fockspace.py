import math
import re
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    GENERAL_LIMIT_LEVEL,
    band_matrices,
    exact_radicand_terms,
    libm_dressing,
    longdouble_dressing,
    plain_ladder,
    point_residuals,
)

from qdgates.audit import ALGEBRA_CHECK_IDS, ladder_band
from qdgates.fockspace import (
    FunctionChoice,
    FunctionFamily,
    RadicandError,
    TruncatedFockSpace,
    f_value,
    radicand,
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

    # F(0) multiplies only zero ladder entries and f_value refuses it; the
    # dense creation-matrix oracle still multiplies it in, so the oracle
    # keeps the level-0 limit, pinned here
    def test_zero_level_takes_limit_value(self):
        p = DeformationParam(0.5)
        assert libm_dressing(0, p, 1.0, 1.0) == pytest.approx(F_AT_ZERO_LIMIT, abs=1e-13)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("psi", [1.0, 2.5])
    def test_continuous_at_zero(self, s, psi):
        p = DeformationParam(s)
        assert abs(libm_dressing(1e-8, p, psi, psi) - libm_dressing(0, p, psi, psi)) < 1e-6

    def test_general_zero_level_evaluates_off_zero(self):
        # unequal functions: no limit exists, the value is taken just off zero
        p = DeformationParam(0.5)
        n = GENERAL_LIMIT_LEVEL
        expected = math.sqrt(
            (math.exp(n * p.s) * 2.0 - math.exp(-n * p.s) * 1.0)
            / (2 * n * math.sinh(p.s))
        )
        assert libm_dressing(0, p, 2.0, 1.0) == pytest.approx(expected, rel=1e-12)

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


@st.composite
def radicand_points(draw):
    """s log-uniform in [1e-8, 1], n in {1} or [2, 300], psi1 in e**+-5, and psi2
    near psi1, unrelated to it, or within 1e-9 of the zero boundary psi1*q**(2n)."""
    s = math.exp(draw(st.floats(math.log(1e-8), 0.0)))
    n = draw(st.one_of(st.just(1), st.integers(2, 300)))
    psi1 = math.exp(draw(st.floats(-5.0, 5.0)))
    kind = draw(st.sampled_from(("near-equal", "unrelated", "near-zero")))
    if kind == "near-equal":
        psi2 = psi1 * (1 + draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(-15.0, -6.0)))
    elif kind == "unrelated":
        psi2 = math.exp(draw(st.floats(-5.0, 5.0)))
    else:
        psi2 = psi1 * math.exp(2 * n * s) * (1 + draw(st.floats(-1e-9, 1e-9)))
    return n, s, psi1, psi2


@settings(deadline=None)
@given(radicand_points())
@example((1, 1e-8, 1.0, 1.0 + 2**-50))  # the exp form's two terms cancel: ~5e7 in these units
def test_radicand_is_within_a_few_ulps_of_its_terms(point):
    # the error is measured in eps times the sum of the terms' magnitudes,
    # with 1 + n*s for the rounding of n*s that sinh and exp amplify
    n, s, psi1, psi2 = point
    head, tail, denominator = exact_radicand_terms(n, s, psi1, psi2)
    scale = (abs(head) + abs(tail)) / denominator
    error = abs(Decimal(radicand(n, s, psi1, psi2)) - (head + tail) / denominator)
    units = error / (Decimal(sys.float_info.epsilon) * (1 + Decimal(n) * Decimal(s)) * scale)
    assert units <= 8


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
        # the oracle's off-zero stand-in at n=0 has a negative radicand here,
        # but every level n >= 1 is valid and F(0) multiplies only zero entries
        space = TruncatedFockSpace(16)
        p = DeformationParam(0.5)
        with pytest.raises(RadicandError, match="n=0"):
            libm_dressing(0, p, 1.0, 1.2)
        a_q, a_q_dag, _ = band_matrices(space, p, 1.0, 1.2)
        assert np.all(np.isfinite(a_q))
        assert a_q[0, 1] == longdouble_dressing([1], p, 1.0, 1.2)[0]
        assert np.array_equal(a_q_dag, a_q.T)
        choice = FunctionChoice(psi1=1.0, psi2=1.2)
        residuals = point_residuals(space, p, choice)
        assert len(residuals) == len(ALGEBRA_CHECK_IDS)
        assert residuals[ALGEBRA_CHECK_IDS.index("number_commutators")] <= 1e-10
        assert residuals[ALGEBRA_CHECK_IDS.index("shift_rule")] <= 1e-10

    def test_invalid_level_one_still_raises(self):
        with pytest.raises(RadicandError, match="n=1"):
            ladder_band(TruncatedFockSpace(8), DeformationParam(0.5), 1.0, 10.0)


class TestFunctionChoice:
    def test_defaults_are_undeformed_compatible(self):
        c = FunctionChoice()
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
        [("psi1", math.inf), ("beta1", math.inf), ("psi2", math.nan), ("psi3", True),
         pytest.param("beta2", 10**400, id="beta2-400-digits")],
    )
    def test_rejects_non_finite_and_boolean_values(self, field, value):
        # an infinite pair used to give a NOT residual of nan, True was stored as given, and
        # an int beyond float64 was accepted and raised OverflowError where it was used
        with pytest.raises(ValueError, match=f"^{field} must be finite and strictly positive"):
            FunctionChoice(**{field: value})

    def test_names_the_first_bad_value_in_check_order(self):
        # psi1..psi4 are checked before beta1 and beta2, whatever the keyword order
        with pytest.raises(ValueError, match="^psi4 must be finite and strictly positive, got nan$"):
            FunctionChoice(beta1=0.0, psi4=math.nan)

    @pytest.mark.parametrize("value", [2, np.float64(2.0)])
    def test_accepts_ints_and_float_subclasses_as_given(self, value):
        assert FunctionChoice(psi1=value, beta2=value).psi3 is value


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

    @pytest.mark.parametrize(
        "kind,exponent",
        [("constant_one", 2.0), ("constant_one", math.nan), ("power_of_q", 10**400),
         ("power_of_q", True), ("power_of_q", "2")],
        ids=["constant-2", "constant-nan", "400-digits", "true", "string"],
    )
    def test_rejects_an_exponent_that_is_no_number_or_not_0_for_the_constant(self, kind, exponent):
        # the constant family used to run psi = 1 whatever its exponent, and 10**400
        # ended in OverflowError
        with pytest.raises(ValueError) as err:
            FunctionFamily(kind, exponent)
        assert str(err.value) == f"exponent must be a number (0 for family 1), got {exponent!r}"

    def test_the_constant_family_takes_exponent_0(self):
        # to_payload writes the constant family with exponent 0.0
        assert FunctionFamily("constant_one", 0) == FunctionFamily() == FunctionFamily.parse("1")

    @pytest.mark.parametrize(
        "spelling,expected",
        [("q^2", FunctionFamily("power_of_q", 2.0)), ({}, FunctionFamily()),
         ({"kind": "power_of_q"}, FunctionFamily("power_of_q", 0.0)),
         ({"kind": "power_of_q", "exponent": -1}, FunctionFamily("power_of_q", -1.0))],
        ids=["string", "empty-object", "kind-only", "int-exponent"],
    )
    def test_from_payload_reads_a_string_or_an_object(self, spelling, expected):
        assert FunctionFamily.from_payload(spelling) == expected

    @pytest.mark.parametrize(
        "spelling", [2, None, ["q"], {"kind": "power_of_q", "power": 2}],
        ids=["number", "null", "list", "unknown-key"],
    )
    def test_from_payload_refuses_other_spellings(self, spelling):
        with pytest.raises(ValueError) as err:
            FunctionFamily.from_payload(spelling)
        assert str(err.value) == f"must be a family string or object, got {spelling!r}"
