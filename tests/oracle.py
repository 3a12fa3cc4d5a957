"""Dense operators, dense states, per-level dressings, the exact radicand and
the report's flat-row bookkeeping, kept only as test oracles.

The package builds no ``d x d`` operator and no dense state vector, and
writes the dressing radicand once per precision: :func:`qdgates.fockspace.radicand`
(float64, ``math``) and :func:`qdgates.audit.ladder_band` (longdouble,
vectorized), at levels ``n != 0`` only.  The helpers here are the plain
ladder matrices, the band expanded into dense deformed ones, a state's
amplitudes written out as a vector over every joint occupation, the
dressing level by level in each of those two precisions (the float64 one
also at ``n = 0``, which the dense creation matrices multiply into zero
entries), and the radicand's terms in 60-digit ``decimal``.  A sweep makes
each grid point's rows once, in check-id order, and counts its summary as it
goes; the row sort, the point regrouping and the summary tally here build the
same from flat rows the long way, as the reference it is checked against.
The band's radicand and the number-commutator residual are also kept in the
two-part forms the audit skips: both radicand terms and the zero rule at every
row, and both commutators' interior entries.  The q-commutator and
number-product residuals are kept as each was before a block shared its terms,
each building its own number diagonals, ``s * nu``, ``sinh(s)`` and spectrum.
The shift rule's f(x) = x**2 + 1 is also evaluated as a general polynomial, by
Horner's rule on its ascending coefficients.  A config makes and checks its grid
points in one walk, when it is built; the two walks it replaced are kept here: the
family check that stops at a family's first bad strength, and the grid that
evaluates both families again at each point.
"""

import decimal
import math
import sys
from decimal import Decimal
from operator import ne

import numpy as np

from qdgates.audit import (
    BAND_DTYPE, _abs_max, _number_diagonals, algebra_residual_grid, ladder_band,
)
from qdgates.fockspace import ZERO_ULPS, FunctionChoice, RadicandError
from qdgates.qnumber import DeformationParam

LD = np.longdouble

# Stand-in evaluation point for F(0) of an unequal pair, where the 0/0 has no limit.
GENERAL_LIMIT_LEVEL = 1e-8


def plain_ladder(space, dtype=np.float64):
    """Standard annihilation, creation and number matrices.

    ``a`` lowers with coefficient sqrt(n), its transpose raises, and the
    number operator is diag(0, ..., cutoff-1).
    """
    levels = np.arange(space.cutoff).astype(dtype)
    a = np.diag(np.sqrt(levels[1:]), 1)
    return a, a.T.copy(), np.diag(levels)


def basis_index(space, pattern):
    """The row-major basis index of an occupation pattern (the last
    oscillator's occupation varying fastest)."""
    return int(np.ravel_multi_index(pattern, (space.cutoff,) * len(pattern)))


def dense(state):
    """The state's amplitude vector over every joint occupation, in basis
    order: each listed pattern's amplitude at its index, 0 everywhere else."""
    vector = np.zeros(state.space.cutoff**state.OSCILLATORS, dtype=complex)
    for pattern, amplitude in state.amplitudes.items():
        vector[basis_index(state.space, pattern)] = amplitude
    return vector


def band_matrices(space, p, psi1, psi2):
    """``a_q``, ``a_q_dag`` and the deformed number operator as dense
    matrices, expanded from :func:`qdgates.audit.ladder_band`."""
    v, nu = ladder_band(space, p, psi1, psi2)
    return np.diag(v, 1), np.diag(v, -1), np.diag(nu)


def libm_dressing(n, p, g1, g2):
    """F(n) with ``math``: at ``n != 0`` the expression and zero rule of
    ``fockspace.radicand``, written out.  At ``n = 0``, a removable 0/0 point,
    the limit ``g1 * s / sinh(s)`` for an equal pair and otherwise the value
    just off zero, at :data:`GENERAL_LIMIT_LEVEL`."""
    s = p.s
    if n == 0 and g1 == g2:
        r = g1 * s / math.sinh(s)
    else:
        m = GENERAL_LIMIT_LEVEL if n == 0 else n
        x = m * s
        head = g1 * math.sinh(x)
        total = head if g1 == g2 else head + (g1 - g2) * math.exp(-x) / 2
        if abs(total) < ZERO_ULPS * math.ulp(1.0) * abs(head):
            total = 0.0
        r = total / (m * math.sinh(s))
    if r < 0:
        raise RadicandError(f"negative radicand at level n={n} with psi1={g1}, psi2={g2}")
    return math.sqrt(r)


def longdouble_dressing(levels, p, psi1, psi2):
    """F(n) for levels n >= 1, one longdouble scalar at a time, by the
    expression and zero rule of ``fockspace.radicand``."""
    s, g1, g2 = LD(p.s), LD(psi1), LD(psi2)
    values = []
    for level in levels:
        x = LD(level) * s
        head = g1 * np.sinh(x)
        total = head if g1 == g2 else head + (g1 - g2) * np.exp(-x) / 2
        if abs(total) < ZERO_ULPS * np.finfo(LD).eps * abs(head):
            total = LD(0)
        r = total / (LD(level) * np.sinh(s))
        if r < 0:
            raise RadicandError(
                f"negative radicand at level n={level} with psi1={psi1}, psi2={psi2}"
            )
        values.append(np.sqrt(r))
    return np.array(values, dtype=LD)


def two_part_band_rows(cutoff, points):
    """``qdgates.audit._band_rows`` with the radicand's second term and the zero rule
    evaluated at every row, equal pairs included."""
    s, g1, g2 = np.array(points, dtype=np.float64).astype(BAND_DTYPE).T[:, :, None]
    levels = np.arange(cutoff).astype(BAND_DTYPE)
    n = levels[1:]
    x = n * s
    head = g1 * np.sinh(x)
    total = head + (g1 - g2) * np.exp(-x, out=np.zeros_like(x), where=g1 != g2) / 2
    total[np.abs(total) < ZERO_ULPS * np.finfo(BAND_DTYPE).eps * np.abs(head)] = 0
    r = total / (n * np.sinh(s))
    bad = r < 0
    keep = ~bad.any(axis=1)
    errors = [
        None if ok else RadicandError(f"negative radicand at level n={k} with psi1={a}, psi2={b}")
        for (_, a, b), ok, k in zip(points, keep, bad.argmax(axis=1) + 1)
    ]
    s = s[keep]
    return np.sqrt(n) * np.sqrt(r[keep]), levels - np.log(g2[keep]) / s, s, errors


def separate_qcommutator(v, nu, s):
    """``qdgates.audit._qcommutator`` from the band alone, with its own diagonals and ``s * nu``."""
    aad, ada = _number_diagonals(v)
    q = np.exp(s)
    return _abs_max(aad - q * ada - np.exp(-s * nu[:, :-2]))


def separate_number_products(v, nu, s):
    """``qdgates.audit._number_products`` from the band alone: its own diagonals, its own
    ``sinh(s nu)`` and ``sinh(s (nu + 1))``, and its own ``sinh(s)``."""
    aad, ada = _number_diagonals(v)
    n = nu[:, :-2]
    d1 = ada - np.sinh(s * n) / np.sinh(s)
    d2 = aad - np.sinh(s * (n + 1)) / np.sinh(s)
    return _abs_max(d1, d2)


def point_residuals(space, p, choice):
    """The four raw residuals of one grid point: its row of
    :func:`qdgates.audit.algebra_residual_grid`, whose error, or first error
    in place of a residual, is raised."""
    (row,) = algebra_residual_grid(space, [(p, choice)])
    errors = [row] if isinstance(row, ValueError) else [r for r in row if isinstance(r, ValueError)]
    if errors:
        raise errors[0]
    return row


# f(x) = x**2 + 1 as ascending coefficients, the polynomial the shift rule is probed at.
SHIFT_POLY = (1.0, 0.0, 1.0)


def horner(coeffs, x):
    """The polynomial of ascending ``coeffs`` at ``x``, by Horner's rule in longdouble."""
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + BAND_DTYPE(c)
    return out


def horner_shift_rule(v, nu, s):
    """``qdgates.audit._shift_rule`` with f evaluated by :func:`horner` on :data:`SHIFT_POLY`."""
    w = v[:, :-2]
    return _abs_max(w * horner(SHIFT_POLY, nu[:, 1:-2]) - horner(SHIFT_POLY, nu[:, :-3] + 1) * w)


def two_part_number_commutators(v, nu, s):
    """``qdgates.audit._number_commutators`` from both parts: the interior entries
    (i, i+1) of [N, a_q] + a_q and (i+1, i) of [N, a_q+] - a_q+."""
    w = v[:, :-2]
    lower = nu[:, :-3] * w - w * nu[:, 1:-2] + w
    raise_ = nu[:, 1:-2] * w - w * nu[:, :-3] - w
    return _abs_max(lower, raise_)


def _exact_sinh(x):
    """sinh of a Decimal: its Taylor series below 1, where exp(x) - exp(-x) cancels."""
    if abs(x) >= 1:
        return (x.exp() - (-x).exp()) / 2
    term, total, k = x, x, 1
    while abs(term) > abs(total) * Decimal("1e-70"):
        term *= x * x / ((k + 1) * (k + 2))
        total += term
        k += 2
    return total


def exact_radicand_terms(n, s, psi1, psi2):
    """The radicand's terms ``psi1*sinh(ns)`` and ``(psi1 - psi2)*exp(-ns)/2``
    and its denominator ``n*sinh(s)``, in 60-digit ``decimal`` from the
    exact values of the floats given."""
    with decimal.localcontext(decimal.Context(prec=60)):
        n, s, psi1, psi2 = map(Decimal, (n, s, psi1, psi2))
        x = n * s
        return psi1 * _exact_sinh(x), (psi1 - psi2) * (-x).exp() / 2, n * _exact_sinh(s)


def canonical_order(entries, s_grid):
    """Flat report rows sorted by (grid index of their ``s``, check id)."""
    order = {s: i for i, s in enumerate(s_grid)}
    return sorted(entries, key=lambda e: (order[e.s], e.check_id))


def group_points(entries):
    """JSON report points from flat rows: each run of consecutive rows whose five point
    cells are equal, with the run's rows.  A NaN cell is equal to none, so its point
    has one row."""
    points = []
    last = None
    for check_id, s, cutoff, psi1, psi2, beta1, beta2, residual, passed, note in entries:
        cells = s, psi1, psi2, beta1, beta2
        if cells != last:
            rows = []
            points.append(
                {"s": s, "psi1": psi1, "psi2": psi2, "beta1": beta1, "beta2": beta2, "rows": rows}
            )
            # tuples compare cells by identity first, which would make a NaN equal to itself
            last = None if any(map(ne, cells, cells)) else cells
        rows.append(
            {"check_id": check_id, "cutoff": cutoff, "note": note, "pass": passed,
             "residual": residual}
        )
    return points


def summarize(entries):
    """A report summary tallied from flat rows."""
    per_check = {}
    unexpected = 0
    for e in entries:
        bucket = per_check.setdefault(e.check_id, {"pass": 0, "fail": 0})
        bucket["pass" if e.passed else "fail"] += 1
        if not e.passed and e.expected_pass():
            unexpected += 1
    return {
        "per_check": per_check,
        "total_pass": sum(b["pass"] for b in per_check.values()),
        "total_fail": sum(b["fail"] for b in per_check.values()),
        "unexpected_failures": unexpected,
    }


def first_bad_point(family, strengths):
    """``"at s=..."`` for the first of ``strengths`` where ``family`` is not a finite positive
    normal float (it overflows, underflows to 0 or to a subnormal it names, or is no number)."""
    for s in strengths:
        try:
            value = family.evaluate(DeformationParam(s).q)
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value >= sys.float_info.min):
            return f"at s={s:g}" + (f" ({value!r} is subnormal)" if 0 < value < math.inf else "")
    return None


def family_problems(s_grid, psi_family, beta_family):
    """A config's problems with its two families, each checked at the grid's in-range
    strengths: the first bad point, or else an exponent that is not finite."""
    strengths = [s for s in s_grid if 0.0 < s <= 1.0]
    problems = []
    for name, family in (("psi_family", psi_family), ("beta_family", beta_family)):
        where = first_bad_point(family, strengths)
        if where is not None:
            problems.append(f"{name} {family.label()} is not a finite positive float {where}")
        elif not math.isfinite(family.exponent):
            problems.append(f"{name} exponent must be finite, got {family.exponent!r}")
    return problems


def grid_points(config):
    """Each grid strength's ``(p, choice)``, both families evaluated afresh at its q."""
    points = []
    for p in map(DeformationParam, config.s_grid):
        psi, beta = config.psi_family.evaluate(p.q), config.beta_family.evaluate(p.q)
        points.append((p, FunctionChoice(psi1=psi, psi2=psi, beta1=beta, beta2=beta)))
    return points
