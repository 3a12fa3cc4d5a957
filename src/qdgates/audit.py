"""Residual checks for the deformed-oscillator operator identities.

Each check forms both sides of one identity and reports the largest-magnitude
entry of the difference on the truncation-safe interior block.  Products of
two ladder operators can touch one boundary level each, so identities are
asserted on levels ``0 .. cutoff-3`` only.

The checks work on the ladder band (:func:`qdgates.fockspace.ladder_band`):
``a_q`` has one nonzero off-diagonal ``v`` and the deformed number operator
is the diagonal ``nu``, so every entry of every product below is a product
of two band entries and each check costs O(cutoff).  The entries are formed
in the same floating-point order as the dense matrix products, so the
residuals are bit for bit those of the dense operators; the only entries
left out are the zeros off the band.  :func:`algebra_residuals` builds the
band once per grid point for all four checks; each ``check_*`` function
called on its own builds it itself.

The checks run in extended precision (``np.longdouble``).  At cutoff 16 and
s close to 1 the deformed diagonal reaches ~1e5, where one float64 ulp is
already ~3e-11; an absolute residual budget of 1e-12 is only meaningful with
the wider accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fockspace import FunctionChoice, TruncatedFockSpace, ladder_band
from .qnumber import DeformationParam

AUDIT_DTYPE = np.longdouble
MIN_AUDIT_CUTOFF = 4
MAX_SHIFT_POLY_DEGREE = 4

QCOMMUTATOR = "qcommutator"
NUMBER_COMMUTATORS = "number_commutators"
NUMBER_PRODUCTS = "number_products"
SHIFT_RULE = "shift_rule"

ALGEBRA_CHECK_IDS = (QCOMMUTATOR, NUMBER_COMMUTATORS, NUMBER_PRODUCTS, SHIFT_RULE)

# f(x) = x**2 + 1, the default polynomial probed against the shift rule.
DEFAULT_SHIFT_POLY = (1.0, 0.0, 1.0)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one identity check at one grid point."""

    condition_id: str
    s: float
    choice: FunctionChoice
    cutoff: int
    residual: float
    tolerance: float
    passed: bool

    @classmethod
    def from_residual(cls, condition_id, p, choice, cutoff, residual, tolerance):
        tolerance = float(tolerance)
        value = float_residual(condition_id, residual)
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance!r}")
        return cls(condition_id, p.s, choice, cutoff, value, tolerance, passes(value, tolerance))


def passes(residual: float, tolerance: float) -> bool:
    """The pass rule of every audit, gate condition and report row."""
    return residual <= tolerance


def float_residual(condition_id: str, residual) -> float:
    """``residual`` as a float64; a ValueError if it is not finite and
    nonnegative there, naming the longdouble magnitude of one that only
    overflows float64."""
    value = float(residual)
    if math.isinf(value) and np.isfinite(residual):
        magnitude = np.format_float_scientific(residual, precision=3)
        raise ValueError(
            f"{condition_id} residual {magnitude} is finite in longdouble "
            f"but overflows float64"
        )
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"residual must be finite and nonnegative, got {value!r}")
    return value


def _require_audit_space(space: TruncatedFockSpace) -> None:
    if space.cutoff < MIN_AUDIT_CUTOFF:
        raise ValueError(
            f"audits need cutoff >= {MIN_AUDIT_CUTOFF} for a nonempty interior block, "
            f"got {space.cutoff}"
        )


def _band(space, p, choice):
    """``(v, nu, s)`` in the audit precision, after the cutoff check."""
    _require_audit_space(space)
    v, nu = ladder_band(space, p, choice.psi1, choice.psi2, dtype=AUDIT_DTYPE)
    return v, nu, AUDIT_DTYPE(p.s)


def _number_diagonals(v):
    # interior diagonals of a_q a_q+ (v[i]**2) and a_q+ a_q (v[i-1]**2, 0 at i=0)
    sq = np.concatenate((np.zeros(1, dtype=v.dtype), v * v))
    return sq[1:-1], sq[:-2]


def _qcommutator(v, nu, s):
    aad, ada = _number_diagonals(v)
    q = np.exp(s)
    return np.max(np.abs(aad - q * ada - np.exp(-s * nu[:-2])))


def _number_commutators(v, nu, s):
    # interior entries (i, i+1) of [N, a_q] + a_q and (i+1, i) of [N, a_q+] - a_q+
    w = v[:-2]
    lower = nu[:-3] * w - w * nu[1:-2] + w
    raise_ = nu[1:-2] * w - w * nu[:-3] - w
    return max(np.max(np.abs(lower)), np.max(np.abs(raise_)))


def _number_products(v, nu, s):
    aad, ada = _number_diagonals(v)
    n = nu[:-2]
    d1 = ada - np.sinh(s * n) / np.sinh(s)
    d2 = aad - np.sinh(s * (n + 1)) / np.sinh(s)
    return max(np.max(np.abs(d1)), np.max(np.abs(d2)))


def _shift_poly(f_coeffs: Sequence[float]):
    coeffs = [float(c) for c in f_coeffs]
    if not coeffs:
        raise ValueError("shift-rule polynomial needs at least one coefficient")
    if len(coeffs) - 1 > MAX_SHIFT_POLY_DEGREE:
        raise ValueError(
            f"shift-rule polynomial degree is capped at {MAX_SHIFT_POLY_DEGREE}, "
            f"got degree {len(coeffs) - 1}"
        )

    def poly(x):
        out = np.zeros_like(x)
        for c in reversed(coeffs):
            out = out * x + AUDIT_DTYPE(c)
        return out

    return poly


def _shift_rule(v, nu, s, poly):
    # interior entries (i, i+1) of a_q f(N) - f(N+1) a_q
    w = v[:-2]
    return np.max(np.abs(w * poly(nu[1:-2]) - poly(nu[:-3] + 1) * w))


def check_qcommutator(
    space: TruncatedFockSpace, p: DeformationParam, choice: FunctionChoice, tol: float
) -> ConditionReport:
    """a_q a_q+ - q a_q+ a_q should equal q**(-N) on the interior block."""
    residual = _qcommutator(*_band(space, p, choice))
    return ConditionReport.from_residual(QCOMMUTATOR, p, choice, space.cutoff, residual, tol)


def check_number_commutators(
    space: TruncatedFockSpace, p: DeformationParam, choice: FunctionChoice, tol: float
) -> ConditionReport:
    """[N, a_q] = -a_q and [N, a_q+] = a_q+.

    Holds for every function choice: N differs from the plain number
    operator by a multiple of the identity, which commutes with everything.
    """
    residual = _number_commutators(*_band(space, p, choice))
    return ConditionReport.from_residual(
        NUMBER_COMMUTATORS, p, choice, space.cutoff, residual, tol
    )


def check_number_products(
    space: TruncatedFockSpace, p: DeformationParam, choice: FunctionChoice, tol: float
) -> ConditionReport:
    """a_q+ a_q against the deformed number [N], a_q a_q+ against [N+1].

    The match requires psi1 * psi2 == 1; for every other choice the two
    sides genuinely disagree and the measured residual documents the gap
    rather than asserting the relation.
    """
    residual = _number_products(*_band(space, p, choice))
    return ConditionReport.from_residual(NUMBER_PRODUCTS, p, choice, space.cutoff, residual, tol)


def check_shift_rule(
    space: TruncatedFockSpace,
    p: DeformationParam,
    choice: FunctionChoice,
    f_coeffs: Sequence[float],
    tol: float,
) -> ConditionReport:
    """a_q f(N) = f(N+1) a_q for a polynomial f given by ascending coefficients.

    A structural property of lowering operators against diagonal functions;
    holds for every function choice.
    """
    _require_audit_space(space)
    poly = _shift_poly(f_coeffs)
    residual = _shift_rule(*_band(space, p, choice), poly)
    return ConditionReport.from_residual(SHIFT_RULE, p, choice, space.cutoff, residual, tol)


def algebra_residuals(
    space: TruncatedFockSpace,
    p: DeformationParam,
    choice: FunctionChoice,
    f_coeffs: Sequence[float] = DEFAULT_SHIFT_POLY,
) -> tuple:
    """The four raw identity residuals at one grid point, in registry order
    and in the audit precision, all from one ladder band."""
    band = _band(space, p, choice)
    return (
        _qcommutator(*band),
        _number_commutators(*band),
        _number_products(*band),
        _shift_rule(*band, _shift_poly(f_coeffs)),
    )


def run_algebra_checks(
    space: TruncatedFockSpace,
    p: DeformationParam,
    choice: FunctionChoice,
    tol: float,
    f_coeffs: Sequence[float] = DEFAULT_SHIFT_POLY,
) -> list[ConditionReport]:
    """All four identity checks at one grid point, in registry order."""
    residuals = algebra_residuals(space, p, choice, f_coeffs)
    return [
        ConditionReport.from_residual(cid, p, choice, space.cutoff, r, tol)
        for cid, r in zip(ALGEBRA_CHECK_IDS, residuals)
    ]
