"""The banded algebra audits and the vectorized dressings against their oracles.

The audit oracle is the earlier implementation of the four checks: it forms
every identity from full ``d x d`` ``np.longdouble`` matrix products.  The
band path forms the same nonzero entries in the same floating-point order,
so every residual must agree exactly, not just closely.  The band's
dressing must reproduce the per-level longdouble scalar loop bit for bit,
and ``f_value`` the per-level ``math`` formula at every level but 0, which
it refuses.  Each row of the grid computation, however its points are split
into blocks, must be the one-point computation of its point.  The band and
the number-commutator residual skip terms whose values are known; they must
equal the two-part forms that evaluate them, bit for bit.  The shift rule's
fixed f(x) = x * x + 1 must equal Horner's rule on ``(1, 0, 1)``, bit for bit.
A block builds each term two identities read once, and at psi2 == 1 reads the
number spectrum from the band's own sinh(n s); its residuals must equal each
identity built from the band alone, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    LD,
    SHIFT_POLY,
    horner,
    horner_shift_rule,
    libm_dressing,
    longdouble_dressing,
    plain_ladder,
    point_residuals,
    separate_number_products,
    separate_qcommutator,
    two_part_band_rows,
    two_part_number_commutators,
)

from qdgates import audit
from qdgates.audit import algebra_residual_grid, ladder_band
from qdgates.fockspace import FunctionChoice, RadicandError, TruncatedFockSpace, f_value
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


def dense_residuals(space, p, choice):
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

    shift = a_q @ np.diag(horner(SHIFT_POLY, nu)) - np.diag(horner(SHIFT_POLY, nu + 1)) @ a_q
    srule = np.max(np.abs(interior(shift)))
    return [qcomm, ncomm, nprod, srule]


def outcome(fn):
    """The value of ``fn()``, or the type and message of the error it raised."""
    try:
        return fn()
    except ValueError as exc:
        return (type(exc), str(exc))


def assert_band_matches_oracle(space, p, choice):
    """The raw band residuals are the dense ones bit for bit, in longdouble
    (a nan matching a nan), or both paths raise the same error."""
    band = outcome(lambda: list(point_residuals(space, p, choice)))
    dense = outcome(lambda: dense_residuals(space, p, choice))
    if isinstance(band, tuple) or isinstance(dense, tuple):
        assert band == dense
        return
    assert [type(r) for r in band] == [type(r) for r in dense] == [LD] * 4
    band, dense = np.array(band), np.array(dense)
    assert np.array_equal(band, dense, equal_nan=True)
    assert np.array_equal(np.signbit(band), np.signbit(dense))


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
    # and F(0), which only the dense oracle multiplies into zero entries, is refused
    space, p, choice = point
    for n in range(space.cutoff):
        argument = 1 - n if shifted else n
        value = outcome(lambda: f_value(argument, p, choice.psi1, choice.psi2))
        if argument == 0:
            assert value[0] is ValueError and "0/0 at n=0" in value[1]
            continue
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
    assert_band_matches_oracle(TruncatedFockSpace(256), DeformationParam(0.7), FunctionChoice())


def test_errors_match_the_oracle():
    # level 1 has a negative radicand: both paths refuse with the same message
    p = DeformationParam(0.5)
    choice = FunctionChoice(psi1=1.0, psi2=10.0)
    with pytest.raises(RadicandError, match="n=1"):
        point_residuals(TruncatedFockSpace(8), p, choice)
    assert_band_matches_oracle(TruncatedFockSpace(8), p, choice)


@st.composite
def mixed_grids(draw):
    """A cutoff and a list of grid points among which some have a negative
    radicand (psi2 well above psi1) and, at cutoff 1024, some have residuals
    beyond float64 (s = 0.9 with a unit dressing)."""
    cutoff = draw(st.sampled_from((4, 5, 16, 64, 1024)))
    psi = st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=20.0))
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        s = draw(st.one_of(st.just(0.9), st.floats(min_value=0.05, max_value=1.0)))
        psi1 = draw(psi)
        psi2 = draw(st.one_of(st.just(psi1), psi))
        points.append((DeformationParam(s), FunctionChoice(psi1=psi1, psi2=psi2)))
    return TruncatedFockSpace(cutoff), points


@settings(deadline=None)
@given(mixed_grids(), st.integers(min_value=1, max_value=4096))
def test_grid_rows_equal_their_points(grid, block_levels):
    # with the default blocks and with blocks of a drawn size, down to one
    # point each, every row is its point's residuals or its point's error
    space, points = grid
    expected = [outcome(lambda: list(point_residuals(space, p, c))) for p, c in points]
    for levels in (audit.BLOCK_LEVELS, block_levels):
        with mock.patch.object(audit, "BLOCK_LEVELS", levels):
            rows = algebra_residual_grid(space, points)
        assert len(rows) == len(points)
        for row, point in zip(rows, expected):
            if isinstance(row, ValueError):
                assert (type(row), str(row)) == point
                continue
            assert isinstance(row, tuple) and [type(r) for r in row] == [LD] * 4
            got, want = np.array(row), np.array(point)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_grid_keeps_errors_at_their_own_point():
    # a negative radicand at the middle point leaves its neighbours' rows alone
    p = DeformationParam(0.5)
    points = [(p, FunctionChoice()), (p, FunctionChoice(1.0, 10.0)), (p, FunctionChoice(2.0, 2.0))]
    space = TruncatedFockSpace(8)
    first, error, last = algebra_residual_grid(space, points)
    assert isinstance(error, RadicandError)
    assert str(error) == "negative radicand at level n=1 with psi1=1.0, psi2=10.0"
    assert list(first) == list(point_residuals(space, *points[0]))
    assert list(last) == list(point_residuals(space, *points[2]))


def test_two_part_maxima_pass_over_a_later_nan_as_python_max_does():
    nan = LD("nan")
    first = np.array([[1.0, -3.0], [nan, 1.0], [2.0, 0.5]], dtype=LD)
    second = np.array([[nan, 0.0], [5.0, 0.0], [-4.0, 0.0]], dtype=LD)
    got = audit._abs_max(first, second)
    want = [max(np.max(np.abs(a)), np.max(np.abs(b))) for a, b in zip(first, second)]
    assert np.array_equal(got, np.array(want, dtype=LD), equal_nan=True)
    assert math.isnan(got[1]) and got[0] == 3.0 and got[2] == 4.0


@pytest.mark.parametrize("cutoff,points,sizes", [(16, 100, [100]), (4096, 10, [4, 4, 2]), (20000, 2, [1, 1])])
def test_blocks_hold_at_most_block_levels_of_band(cutoff, points, sizes):
    # sweep-wide's 100 points at cutoff 16 are one block; a cutoff above
    # BLOCK_LEVELS builds one point's band at a time
    seen, band_rows = [], audit._band_rows

    def recording(cutoff, block):
        seen.append(len(block))
        return band_rows(cutoff, block)

    grid = [(DeformationParam(0.01 + 0.001 * i), FunctionChoice()) for i in range(points)]
    with mock.patch.object(audit, "_band_rows", recording):
        rows = algebra_residual_grid(TruncatedFockSpace(cutoff), grid)
    assert seen == sizes and len(rows) == points


# psi2 is the float64 nearest q**2 psi1: the level-1 radicand sum, 1.4 longdouble eps of its
# head, counts as 0 only by the zero rule
ZERO_RULE_POINT = (0.671, 1.0, 3.8266892355586846)


@st.composite
def band_blocks(draw):
    """A cutoff and a block of ``(s, psi1, psi2)`` points whose pairs are all equal, as in
    every sweep, or mixed: some with a negative radicand, some at :data:`ZERO_RULE_POINT`.
    At cutoff 12000 and s near 1 the band overflows longdouble, and its commutator entries
    are inf or nan."""
    cutoff = draw(st.sampled_from((4, 5, 16, 64, 1024, 12000)))
    psi = st.one_of(st.sampled_from((1.0, 1e300)), st.floats(min_value=1e-300, max_value=1e300))
    equal = draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=3 if cutoff > 1024 else 24))):
        s = draw(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)))
        psi1 = draw(psi)
        if equal:
            points.append((s, psi1, psi1))
        else:
            point = (s, psi1, draw(st.one_of(st.just(psi1), psi)))
            points.append(draw(st.sampled_from((point, ZERO_RULE_POINT))))
    return cutoff, points


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == LD and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(deadline=None)
@given(band_blocks())
def test_one_part_forms_equal_the_two_part_oracles(block):
    cutoff, points = block
    with np.errstate(over="ignore", invalid="ignore"):
        *band, errors, _, _ = audit._band_rows(cutoff, points)
        *two_part, two_part_errors = two_part_band_rows(cutoff, points)
        commutators = audit._number_commutators(*band)
        two_part_commutators = two_part_number_commutators(*band)
    for got, want in zip(band, two_part):
        assert_same_bits(got, want)
    assert [e and str(e) for e in errors] == [e and str(e) for e in two_part_errors]
    assert_same_bits(commutators, two_part_commutators)


@settings(deadline=None)
@given(band_blocks(), st.booleans())
@example((16, [(0.3712, 2.0, 1.0)]), False)
@example((64, [(0.5, 1.0, 1.0), (0.5, 0.1, 1.0), (0.9, 2.0, 1.0)]), False)
@example((64, [(0.5, 1.0, 1.0), (0.5, 0.1, 2.0)]), False)
@example((12000, [(1.0, 1.0, 1.0)]), False)
def test_shared_terms_equal_each_identity_alone(block, unit_psi2):
    # the block's residuals, from terms it shares, are each identity's from the band alone;
    # the spectrum share depends on psi2 alone, so half the draws set psi2 = 1 at every point,
    # and the examples hold psi1 != 1, a negative radicand and an error beside a shared block
    cutoff, points = block
    if unit_psi2:
        points = [(s, psi1, 1.0) for s, psi1, _ in points]
    with np.errstate(over="ignore", invalid="ignore"):
        grid, _, _, errors = audit._block_grid(cutoff, points)
        v, nu, s, band_errors, _, sinh_ns = audit._band_rows(cutoff, points)
        alone = (separate_qcommutator(v, nu, s), audit._number_commutators(v, nu, s),
                 separate_number_products(v, nu, s), audit._shift_rule(v, nu, s))
    assert [e and str(e) for e in errors] == [e and str(e) for e in band_errors]
    kept = [psi2 for (_, _, psi2), error in zip(points, errors) if error is None]
    assert (sinh_ns is not None) == all(psi2 == 1 for psi2 in kept)
    for got, want in zip(grid, alone):
        assert_same_bits(got, want)


@pytest.mark.parametrize("unit, calls", [(True, 1), (False, 3)], ids=["psi2=1", "psi2=q"])
def test_the_spectrum_at_unit_psi2_is_the_bands_own_sinh(unit, calls):
    # sinh runs over the band's levels once, for the radicand, where every psi2 == 1; where
    # psi2 = q the spectrum takes two more, sinh(s nu) and sinh(s (nu + 1))
    sinh, shapes = np.sinh, []

    def counting(x, *args, **kwargs):
        if np.shape(x)[-1:] != (1,):  # not sinh(s)
            shapes.append(np.shape(x))
        return sinh(x, *args, **kwargs)

    params = [DeformationParam(s) for s in (0.2, 0.5, 0.9)]
    grid = [(p, FunctionChoice() if unit else FunctionChoice(p.q, p.q)) for p in params]
    with mock.patch.object(np, "sinh", counting):
        rows = algebra_residual_grid(TruncatedFockSpace(64), grid)
    assert len(shapes) == calls and all(shape[0] == 3 for shape in shapes)
    assert all(isinstance(row, tuple) for row in rows)


@settings(deadline=None)
@given(band_blocks())
def test_fixed_shift_rule_equals_the_horner_form(block):
    # x * x + 1 and Horner's ((0 x + 1) x + 0) x + 1 are both fl(fl(x x) + 1), inf and nan
    # included where the band overflows
    cutoff, points = block
    with np.errstate(over="ignore", invalid="ignore"):
        v, nu, s, *_ = audit._band_rows(cutoff, points)
        assert_same_bits(audit._shift_rule(v, nu, s), horner_shift_rule(v, nu, s))


def test_the_drawn_bands_reach_the_zero_rule_and_an_overflow_row():
    zero_rule_v = audit._band_rows(4, [ZERO_RULE_POINT])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        v, nu, s, *_ = audit._band_rows(12000, [(1.0, 1.0, 1.0)])
        residual = audit._number_commutators(v, nu, s)
        shift_rule = audit._shift_rule(v, nu, s)
    assert zero_rule_v[0, 0] == 0
    assert np.isinf(v).any() and not np.isfinite(residual).all()
    assert not np.isfinite(shift_rule).all()
