"""The banded algebra audits and the vectorized dressings against their oracles.

The audit oracle is the earlier implementation of the four checks: it forms
every identity from full ``d x d`` ``np.longdouble`` matrix products.  The
band path forms the same nonzero entries in the same floating-point order,
so every residual must agree exactly, not just closely.  The band's
dressing must reproduce the per-level longdouble scalar loop bit for bit,
and ``f_value`` the per-level ``math`` formula.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import LD, libm_dressing, longdouble_dressing, plain_ladder

from qdgates.audit import DEFAULT_SHIFT_POLY, ConditionReport, run_algebra_checks
from qdgates.fockspace import (
    FunctionChoice,
    RadicandError,
    TruncatedFockSpace,
    f_value,
    ladder_band,
)
from qdgates.qnumber import DeformationParam


def dense_ops(space, p, choice):
    """``a F(N)``, ``F(N) a_dag`` and ``N - ln(psi2)/s`` as dense matrices.

    F(0) multiplies only zero entries of ``a`` and ``a_dag``, so it is set to
    0 rather than evaluated.
    """
    d = space.cutoff
    a, a_dag, n_hat = plain_ladder(space, LD)
    f_levels = longdouble_dressing(range(1, d), p, choice.psi1, choice.psi2)
    f = np.diag(np.concatenate((np.zeros(1, dtype=LD), f_levels)))
    shift = np.log(LD(choice.psi2)) / LD(p.s)
    return a @ f, f @ a_dag, n_hat - shift * np.eye(d, dtype=LD)


def interior(m):
    return m[:-2, :-2]


def dense_residuals(space, p, choice, f_coeffs=DEFAULT_SHIFT_POLY):
    """qcommutator, number_commutators, number_products, shift_rule residuals."""
    a_q, a_q_dag, n_def = dense_ops(space, p, choice)
    s = LD(p.s)
    q = np.exp(s)
    nu = np.diag(n_def)

    lhs = a_q @ a_q_dag - q * (a_q_dag @ a_q)
    rhs = np.diag(np.exp(-s * nu))
    qcomm = np.max(np.abs(interior(lhs - rhs)))

    lower = n_def @ a_q - a_q @ n_def + a_q
    raise_ = n_def @ a_q_dag - a_q_dag @ n_def - a_q_dag
    ncomm = max(np.max(np.abs(interior(lower))), np.max(np.abs(interior(raise_))))

    q_of_n = np.diag(np.sinh(s * nu) / np.sinh(s))
    q_of_n1 = np.diag(np.sinh(s * (nu + 1)) / np.sinh(s))
    d1 = a_q_dag @ a_q - q_of_n
    d2 = a_q @ a_q_dag - q_of_n1
    nprod = max(np.max(np.abs(interior(d1))), np.max(np.abs(interior(d2))))

    def poly(x):
        out = np.zeros_like(x)
        for c in reversed([float(c) for c in f_coeffs]):
            out = out * x + LD(c)
        return out

    shift = a_q @ np.diag(poly(nu)) - np.diag(poly(nu + 1)) @ a_q
    srule = np.max(np.abs(interior(shift)))
    return [qcomm, ncomm, nprod, srule]


def outcome(fn):
    """The value of ``fn()``, or the type and message of the error it raised."""
    try:
        return fn()
    except ValueError as exc:
        return (type(exc), str(exc))


def assert_band_matches_oracle(space, p, choice, tol=1e-10):
    band = outcome(lambda: run_algebra_checks(space, p, choice, tol))
    dense = outcome(
        lambda: [
            ConditionReport.from_residual(cid, p, choice, space.cutoff, r, tol)
            for cid, r in zip(
                ("qcommutator", "number_commutators", "number_products", "shift_rule"),
                dense_residuals(space, p, choice),
            )
        ]
    )
    assert band == dense


@st.composite
def grid_points(draw):
    s = draw(st.floats(min_value=0.05, max_value=1.0, exclude_min=True))
    q = math.exp(s)
    psi = st.one_of(
        st.sampled_from((1.0, q, q**0.5, q**2)),
        st.floats(min_value=0.05, max_value=20.0),
    )
    cutoff = draw(st.integers(min_value=4, max_value=64))
    return TruncatedFockSpace(cutoff), DeformationParam(s), FunctionChoice(
        psi1=draw(psi), psi2=draw(psi)
    )


@settings(deadline=None)
@given(grid_points())
def test_ladder_band_equals_scalar_loop(point):
    space, p, choice = point
    levels = range(1, space.cutoff)
    root_n = np.sqrt(np.arange(1, space.cutoff).astype(LD))
    band = outcome(lambda: ladder_band(space, p, choice.psi1, choice.psi2)[0])
    scalar = outcome(lambda: root_n * longdouble_dressing(levels, p, choice.psi1, choice.psi2))
    if isinstance(scalar, tuple):
        assert band == scalar
    else:
        assert band.dtype == scalar.dtype == LD
        assert np.array_equal(band, scalar)


@settings(deadline=None)
@given(grid_points(), st.booleans())
def test_f_value_equals_libm_loop(point, shifted):
    # the shifted dressing of a pair's second oscillator evaluates at 1 - n
    space, p, choice = point
    for n in range(space.cutoff):
        argument = 1 - n if shifted else n
        value = outcome(lambda: f_value(argument, p, choice.psi1, choice.psi2))
        expected = outcome(lambda: libm_dressing(argument, p, choice.psi1, choice.psi2))
        if isinstance(expected, tuple):
            assert value == expected
        else:
            assert value.hex() == expected.hex()


@settings(deadline=None)
@given(grid_points())
def test_band_residuals_equal_dense_oracle(point):
    assert_band_matches_oracle(*point)


@pytest.mark.parametrize(
    "s,psi1,psi2",
    [(0.5, 1.0, 1.0), (0.9, math.e**0.9, math.e**0.9), (0.3712, 2.0, 1.0)],
)
def test_band_residuals_equal_dense_oracle_at_fixed_points(s, psi1, psi2):
    assert_band_matches_oracle(TruncatedFockSpace(16), DeformationParam(s), FunctionChoice(psi1, psi2))


def test_band_residuals_equal_dense_oracle_at_cutoff_256():
    assert_band_matches_oracle(TruncatedFockSpace(256), DeformationParam(0.7), FunctionChoice.unit())


def test_errors_match_the_oracle():
    # level 1 has a negative radicand: both paths refuse with the same message
    p = DeformationParam(0.5)
    choice = FunctionChoice(psi1=1.0, psi2=10.0)
    with pytest.raises(RadicandError, match="n=1"):
        run_algebra_checks(TruncatedFockSpace(8), p, choice, 1e-10)
    assert_band_matches_oracle(TruncatedFockSpace(8), p, choice)
