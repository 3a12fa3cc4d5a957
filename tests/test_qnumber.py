import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdgates.qnumber import DeformationParam, q_factorial, q_number

# q + 1/q at s = 0.5, frozen from direct evaluation of the closed form
Q_NUMBER_TWO_AT_HALF = 2.2552519304127614


class TestDeformationParam:
    def test_q_is_cached_exponential(self):
        p = DeformationParam(0.37)
        assert p.q == math.exp(0.37)

    # a 400-digit integer used to end in an OverflowError from float()
    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, 7.0, pytest.param(10**400, id="10**400")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DeformationParam(bad)

    def test_accepts_endpoint_one(self):
        assert DeformationParam(1.0).q == math.exp(1.0)


class TestQNumber:
    def test_zero_maps_to_zero(self):
        assert q_number(0.0, DeformationParam(0.5)) == 0.0

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 1.0])
    def test_one_maps_to_one(self, s):
        assert q_number(1.0, DeformationParam(s)) == 1.0

    def test_two_matches_closed_form(self):
        p = DeformationParam(0.5)
        oracle = p.q + 1.0 / p.q
        value = q_number(2.0, p)
        assert value == pytest.approx(oracle, abs=1e-14)
        assert value == pytest.approx(Q_NUMBER_TWO_AT_HALF, abs=1e-13)

    def test_small_s_recovers_plain_number(self):
        assert abs(q_number(3.0, DeformationParam(1e-9)) - 3.0) < 1e-6

    @pytest.mark.parametrize("s", [1e-3, 1e-4])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0])
    def test_taylor_bound_near_undeformed(self, s, x):
        diff = abs(q_number(x, DeformationParam(s)) - x)
        assert diff <= x**3 * s**2 / 2

    @given(
        x=st.floats(min_value=-20, max_value=20, allow_nan=False),
        s=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_odd_symmetry(self, x, s):
        p = DeformationParam(s)
        assert q_number(-x, p) == -q_number(x, p)

    def test_sign_follows_argument(self):
        p = DeformationParam(0.7)
        assert q_number(2.5, p) > 0
        assert q_number(-2.5, p) < 0


class TestQFactorial:
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_products(self, n):
        assert q_factorial(n, DeformationParam(0.3)) == 1.0

    def test_two_matches_closed_form(self):
        assert q_factorial(2, DeformationParam(0.5)) == pytest.approx(
            Q_NUMBER_TWO_AT_HALF, abs=1e-13
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            q_factorial(-1, DeformationParam(0.5))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            q_factorial(2.5, DeformationParam(0.5))

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_matches_explicit_loop_product(self, s):
        p = DeformationParam(s)
        for n in range(13):
            oracle = 1.0
            for k in range(1, n + 1):
                oracle *= q_number(k, p)
            value = q_factorial(n, p)
            assert abs(value - oracle) <= 1e-13 * abs(oracle)

    def test_strictly_positive(self):
        p = DeformationParam(0.9)
        assert all(q_factorial(n, p) > 0 for n in range(10))
