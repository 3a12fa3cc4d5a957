"""The ladder band and the residuals of the deformed-oscillator operator identities.

Each identity's residual is the largest-magnitude entry of the difference of
its two sides on the truncation-safe interior block.  Products of two ladder
operators can touch one boundary level each, so identities are measured on
levels ``0 .. cutoff-3`` only.  A residual is a measurement, not a verdict:
the report turns it into a row that passes or fails
(:func:`qdgates.report._entry`).

The residuals are formed from the ladder band (:func:`ladder_band`): ``a_q``
has one nonzero off-diagonal ``v`` and the deformed number operator is the
diagonal ``nu``, so every entry of every product below is a product of two
band entries and each identity costs O(cutoff).  The entries are formed in
the same floating-point order as the dense matrix products, so the residuals
are bit for bit those of the dense operators; the only entries left out are
the zeros off the band.  :func:`algebra_residual_grid` builds the band once per
block of grid points as ``(points x levels)`` arrays: the same bits at any shape.
Each term that two identities read is built once per block: the number
diagonals, ``s nu``, ``sinh(s)`` and the deformed spectrum ``[N]``, ``[N+1]``.
Where every point of a block has psi2 == 1, the spectrum is the radicand's own
``sinh(n s)``, one level apart, over its ``sinh(s)``, with the bits of its own
evaluation: ``ln(1)`` is exactly 0, so nu is the integer levels; IEEE products
commute, so ``s n`` is ``n s``; ``n + 1`` is exact; and both are the same
``np.sinh`` over the same longdouble values.

The band is always in extended precision (:data:`BAND_DTYPE`, ``np.longdouble``).  At
cutoff 16 and s close to 1 the deformed diagonal reaches ~1e5, where one float64 ulp
is already ~3e-11; an absolute residual budget of 1e-12 is only meaningful with the
wider accumulator.  This is the only module that imports numpy, and so the only one
that turns a longdouble residual into float64 (:func:`_row_residual`, which names
the magnitude of one that overflows float64).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fockspace import ZERO_ULPS, RadicandError, TruncatedFockSpace
from .qnumber import DeformationParam

# The precision of the ladder band, and so of every algebra residual.
BAND_DTYPE = np.longdouble

MIN_AUDIT_CUTOFF = 4
# Band entries per block of grid points; a block holds at least one point.
BLOCK_LEVELS = 2**14

QCOMMUTATOR = "qcommutator"
NUMBER_COMMUTATORS = "number_commutators"
NUMBER_PRODUCTS = "number_products"
SHIFT_RULE = "shift_rule"

ALGEBRA_CHECK_IDS = (QCOMMUTATOR, NUMBER_COMMUTATORS, NUMBER_PRODUCTS, SHIFT_RULE)


def _band_rows(cutoff: int, points: Sequence[tuple]) -> tuple:
    """``(v, nu, s, errors, sinh_s, sinh_ns)`` of ``(s, psi1, psi2)`` points: each point's
    RadicandError or None, and the band rows (and ``s`` and ``sinh(s)`` columns) of the points
    without one, in order.  The radicand is :func:`qdgates.fockspace.radicand`'s expression and
    zero rule, in longdouble.  ``sinh_ns`` is its ``sinh(n s)`` rows at levels ``0 .. cutoff-1``
    if every such point has psi2 == 1, where they are also the deformed number spectrum's
    (:func:`_spectrum`), and None otherwise."""
    s, g1, g2 = np.array(points, dtype=np.float64).astype(BAND_DTYPE).T[:, :, None]
    levels = np.arange(cutoff).astype(BAND_DTYPE)
    n = levels[1:]
    x = levels * s
    sinh_ns = np.sinh(x)
    head = g1 * sinh_ns[:, 1:]
    if (g1 == g2).all():  # the second term is exactly 0, so the zero rule cannot fire
        total = head
    else:
        total = head + (g1 - g2) * np.exp(-x[:, 1:]) / 2
        total[np.abs(total) < ZERO_ULPS * np.finfo(BAND_DTYPE).eps * np.abs(head)] = 0
    sinh_s = np.sinh(s)
    r = total / (n * sinh_s)
    bad = r < 0
    keep = ~bad.any(axis=1)
    errors = [
        None if ok else RadicandError(f"negative radicand at level n={k} with psi1={a}, psi2={b}")
        for (_, a, b), ok, k in zip(points, keep, bad.argmax(axis=1) + 1)
    ]
    s, g2 = s[keep], g2[keep]
    shared = sinh_ns[keep] if (g2 == 1).all() else None
    return np.sqrt(n) * np.sqrt(r[keep]), levels - np.log(g2) / s, s, errors, sinh_s[keep], shared


def ladder_band(
    space: TruncatedFockSpace, p: DeformationParam, psi1: float, psi2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of the dressed ladder pair and the shifted number operator.

    Returns ``(v, nu)`` in :data:`BAND_DTYPE`: ``v[n-1] = sqrt(n) F(n)`` for
    ``n = 1 .. cutoff-1`` is the superdiagonal of ``a_q`` and the subdiagonal
    of ``a_q_dag``, and ``nu[n] = n - ln(psi2)/s`` is the diagonal of the
    deformed number operator.  ``F(0)`` multiplies only zero entries and is
    never evaluated, so ``psi1 < psi2`` is allowed; a negative radicand at
    some ``n >= 1`` raises :class:`RadicandError` naming the first such level.
    """
    v, nu, _, (error,), *_ = _band_rows(space.cutoff, [(p.s, psi1, psi2)])
    if error:
        raise error
    return v[0], nu[0]


def _abs_max(*parts):
    # each row's largest magnitude, parts combined as Python's max combines
    # numbers: a later part counts only where it is greater, so never as a nan
    out, *rest = (np.max(np.abs(part), axis=-1) for part in parts)
    for m in rest:
        out = np.where(m > out, m, out)
    return out


def _number_diagonals(v):
    # interior diagonals of a_q a_q+ (v[i]**2) and a_q+ a_q (v[i-1]**2, 0 at i=0)
    sq = np.concatenate((np.zeros_like(v[:, :1]), v * v), axis=-1)
    return sq[:, 1:-1], sq[:, :-2]


def _qcommutator(aad, ada, sn, s):
    """a_q a_q+ - q a_q+ a_q against q**(-N), from the number diagonals and ``sn = s nu``.

    Holds iff psi1 == psi2: at level 0, where a_q+ a_q vanishes, a_q a_q+
    is F(1)**2 = (q psi1 - psi2/q)/(q - 1/q) against q**(-N) = psi2.  Every
    level above matches for any choice.
    """
    return _abs_max(aad - np.exp(s) * ada - np.exp(-sn))


def _number_commutators(v, nu, s):
    """[N, a_q] = -a_q and [N, a_q+] = a_q+.

    Holds for every function choice: N differs from the plain number
    operator by a multiple of the identity, which commutes with everything.

    One part gives the residual of both.  With ``A = nu[i] w`` and
    ``B = w nu[i+1]``, entry (i, i+1) of [N, a_q] + a_q is fl(fl(A - B) + w)
    and entry (i+1, i) of [N, a_q+] - a_q+ is fl(fl(B - A) - w).  Rounding to
    nearest is symmetric, so the second is minus the first bit for bit, and
    its magnitude is the same (inf and nan included).
    """
    w = v[:, :-2]
    return _abs_max(nu[:, :-3] * w - w * nu[:, 1:-2] + w)


def _spectrum(nu, sn, s, sinh_s, sinh_ns):
    """The deformed number spectrum ``([N], [N+1])`` on the interior block, ``[x]`` being
    ``sinh(s x)/sinh(s)``: from ``sn = s nu`` and ``s (nu + 1)``, or, given the band's
    ``sinh_ns`` (every psi2 == 1), read from it one level apart, with the same bits for the
    reasons the module docstring gives."""
    if sinh_ns is None:
        sinh_nu = np.sinh(sn), np.sinh(s * (nu[:, :-2] + 1))
    else:
        sinh_nu = sinh_ns[:, :-2], sinh_ns[:, 1:-1]
    return [x / sinh_s for x in sinh_nu]


def _number_products(aad, ada, spectrum):
    """a_q+ a_q against the deformed number [N], a_q a_q+ against [N+1].

    Holds iff psi1 == psi2 == 1.  psi1 * psi2 == 1 is not enough: it matches
    every level above 0, but at level 0 a_q+ a_q vanishes while [N] is
    [-ln(psi2)/s], which is 0 only for psi2 == 1.  For every other choice
    the two sides genuinely disagree and the residual documents the gap.
    """
    n, n1 = spectrum
    return _abs_max(ada - n, aad - n1)


def _shift_rule(v, nu, s):
    """a_q f(N) = f(N+1) a_q at f(x) = x**2 + 1.

    A structural property of lowering operators against diagonal functions;
    holds for every function choice.
    """
    def f(x):
        return x * x + 1

    # interior entries (i, i+1) of a_q f(N) - f(N+1) a_q
    w = v[:, :-2]
    return _abs_max(w * f(nu[:, 1:-2]) - f(nu[:, :-3] + 1) * w)


def _block_grid(cutoff: int, block: Sequence[tuple]) -> tuple:
    """``(grid, v, spectrum, errors)`` of a block of ``(s, psi1, psi2)`` points: the four
    residual rows in :data:`ALGEBRA_CHECK_IDS` order over the points without a RadicandError,
    their band and :func:`_spectrum`, and :func:`_band_rows`' errors.  Each term two identities
    share (the number diagonals, ``s nu``, ``sinh(s)`` and the spectrum) is built once."""
    v, nu, s, errors, sinh_s, sinh_ns = _band_rows(cutoff, block)
    aad, ada = _number_diagonals(v)
    sn = s * nu[:, :-2]
    spectrum = _spectrum(nu, sn, s, sinh_s, sinh_ns)
    grid = (_qcommutator(aad, ada, sn, s), _number_commutators(v, nu, s),
            _number_products(aad, ada, spectrum), _shift_rule(v, nu, s))
    return grid, v, spectrum, errors


def algebra_residual_grid(space: TruncatedFockSpace, points: Sequence) -> list:
    """For each ``(p, choice)`` of ``points``, its four raw identity residuals in
    :data:`ALGEBRA_CHECK_IDS` order and the band precision, or its band's RadicandError.  A
    residual not finite in longdouble is a ValueError naming where the band or spectrum overflows.
    A cutoff below :data:`MIN_AUDIT_CUTOFF` raises."""
    if space.cutoff < MIN_AUDIT_CUTOFF:
        raise ValueError(f"audits need cutoff >= {MIN_AUDIT_CUTOFF} for a nonempty interior "
                         f"block, got {space.cutoff}")
    size = max(1, BLOCK_LEVELS // space.cutoff)
    rows: list = []
    for start in range(0, len(points), size):
        block = [(p.s, c.psi1, c.psi2) for p, c in points[start : start + size]]
        with np.errstate(over="ignore", invalid="ignore"):  # a band that overflows is named below
            grid, v, spectrum, errors = _block_grid(space.cutoff, block)
            residuals = zip(*grid)
            if not np.isfinite(grid).all():  # only then look for what overflows
                residuals = iter([_overflow_row(*row) for row in zip(residuals, v, *spectrum)])
        rows.extend(error or next(residuals) for error in errors)
    return rows


def _overflow_row(residuals: tuple, v_row, n_row, n1_row) -> tuple:
    """``residuals``, each that is not finite made a ValueError naming the first level where the
    band ``v_row`` or, if it is finite, the spectrum's [N] ``n_row`` or [N+1] ``n1_row`` is not."""
    finite, what, start = np.isfinite(v_row), "the ladder band", 1
    if finite.all():
        finite = np.isfinite(n_row) & np.isfinite(n1_row)
        what, start = "the deformed number spectrum", 0
    if finite.all():
        return residuals
    note = f"{what} overflows longdouble from level n={np.argmin(finite) + start}"
    return tuple(
        r if np.isfinite(r) else ValueError(f"{check_id} residual is not finite: {note}")
        for check_id, r in zip(ALGEBRA_CHECK_IDS, residuals)
    )


def _row_residual(row, i: int) -> float:
    """Residual ``i`` of a grid row as a float64; the row's error, an error in its place, or
    one naming the magnitude of a longdouble residual that overflows float64 is raised."""
    value = row if isinstance(row, ValueError) else row[i]
    if isinstance(value, ValueError):
        raise value
    residual = float(value)
    if math.isinf(residual) and np.isfinite(value):
        magnitude = np.format_float_scientific(value, precision=3)
        raise ValueError(f"{ALGEBRA_CHECK_IDS[i]} residual {magnitude} is finite in longdouble "
                         f"but overflows float64")
    return residual
