"""The banded algebra audits and the vectorized dressing against their oracles.

The audit oracle is the earlier implementation of the four checks: it forms
every identity from full ``d x d`` ``np.longdouble`` matrix products.  The
band path forms the same nonzero entries in the same floating-point order,
so every residual must agree exactly, not just closely.  The dressing oracle
is the earlier per-level scalar loop, which the vectorized dressing must
reproduce bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdgates.audit import DEFAULT_SHIFT_POLY, ConditionReport, run_algebra_checks
from qdgates.fockspace import (
    GENERAL_LIMIT_LEVEL,
    FunctionChoice,
    RadicandError,
    TruncatedFockSpace,
    dressing_vector,
    ladder_ops,
)
from qdgates.qnumber import DeformationParam

LD = np.longdouble


def scalar_dressing(arguments, p, psi1, psi2, dtype):
    """F(n) level by level with scalar arithmetic, as the earlier loop did."""
    s, g1, g2 = dtype(p.s), dtype(psi1), dtype(psi2)
    values = []
    for n in arguments:
        n = dtype(n)
        if g1 == g2:
            if n == 0:
                r = g1 * s / np.sinh(s)
            else:
                r = g1 * np.sinh(n * s) / (n * np.sinh(s))
        else:
            if n == 0:
                n = dtype(GENERAL_LIMIT_LEVEL)
            r = (np.exp(n * s) * g1 - np.exp(-n * s) * g2) / (2 * n * np.sinh(s))
        if r < 0:
            raise RadicandError(
                f"negative radicand at level n={arguments[len(values)]} "
                f"with psi1={psi1}, psi2={psi2}"
            )
        values.append(np.sqrt(r))
    return np.array(values, dtype=dtype)


def dense_ops(space, p, choice):
    """``a F(N)``, ``F(N) a_dag`` and ``N - ln(psi2)/s`` as dense matrices.

    F(0) multiplies only zero entries of ``a`` and ``a_dag``, so it is set to
    0 rather than evaluated.
    """
    d = space.cutoff
    a, a_dag, n_hat = ladder_ops(space, dtype=LD)
    f_levels = dressing_vector(range(1, d), p, choice.psi1, choice.psi2, dtype=LD)
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
@given(grid_points(), st.sampled_from((np.float64, LD)), st.booleans())
def test_dressing_vector_equals_scalar_loop(point, dtype, shifted):
    space, p, choice = point
    arguments = [1 - n if shifted else n for n in range(space.cutoff)]
    vector = outcome(lambda: dressing_vector(arguments, p, choice.psi1, choice.psi2, dtype=dtype))
    scalar = outcome(lambda: scalar_dressing(arguments, p, choice.psi1, choice.psi2, dtype))
    if isinstance(scalar, tuple):
        assert vector == scalar
    else:
        assert vector.dtype == scalar.dtype
        assert np.array_equal(vector, scalar, equal_nan=True)


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
