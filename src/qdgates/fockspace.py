"""Truncated Fock-space operators for standard and deformed ladder operators.

Operators act on the retained levels ``0 .. cutoff-1``.  The deformed
annihilation/creation pair is obtained by dressing the standard ladder
matrices with a diagonal factor

    F(n) = sqrt((q**n * psi1 - q**-n * psi2) / (n * (q - q**-1)))

built from two positive functions of q, and the deformed number operator is
the standard one shifted by ``ln(psi2)/s`` times the identity.

Every one of these operators is diagonal or has a single nonzero
off-diagonal, so :func:`ladder_band` stores them as two vectors: the band
``sqrt(n) F(n)``, ``n = 1 .. cutoff-1``, shared by ``a_q`` (above the
diagonal) and ``a_q_dag`` (below it), and the shifted number diagonal.
:func:`deformed_ladder_ops` expands that band into dense matrices.

The dressing at ``n = 0`` is a removable 0/0 point when ``psi1 == psi2``
and is assigned its limit ``psi * s / sinh(s)`` (under the square root); in
the general case the expression is simply evaluated just off zero.  The
level-0 value would multiply only zero matrix entries, so the ladder band
never evaluates it: the dressed operators exist whenever every level
``n >= 1`` has a nonnegative radicand, even for ``psi1 < psi2``, where the
off-zero stand-in is negative.  :func:`dressing_diag`, and :func:`f_value`
and :func:`dressing_vector` when asked for it, still evaluate level 0.

Constructors accept a ``dtype`` so that callers needing identity residuals
below one float64 ulp of the operator magnitude (the audit module) can run
the same pipeline in ``np.longdouble``.  In float64, numpy may evaluate
``exp`` and ``sinh`` with SIMD kernels that differ from libm in the last bit,
so no report value is computed here in float64: the qubit layer evaluates the
one dressing value it needs, at argument 1, with ``math``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qnumber import DeformationParam

# Stand-in evaluation point for the 0/0 dressing value when psi1 != psi2.
GENERAL_LIMIT_LEVEL = 1e-8

CONSTANT_ONE = "constant_one"
POWER_OF_Q = "power_of_q"


class RadicandError(ValueError):
    """A dressing factor would need the square root of a negative number."""


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Fock levels 0 .. cutoff-1 kept; everything above is projected away."""

    cutoff: int

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, int) or self.cutoff < 2:
            raise ValueError(f"cutoff must be an integer >= 2, got {self.cutoff!r}")


@dataclass(frozen=True)
class FunctionChoice:
    """Values of the six arbitrary dressing functions at the working q.

    ``psi1``/``psi2`` dress the control-side oscillator pair and ``beta1``/
    ``beta2`` the target side.  ``psi3``/``psi4`` belong to the second
    oscillator in the Hadamard construction and default to ``psi1``/``psi2``.
    All six sit under square roots and must be finite positive numbers.
    """

    psi1: float = 1.0
    psi2: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    psi3: float | None = None
    psi4: float | None = None

    def __post_init__(self) -> None:
        if self.psi3 is None:
            object.__setattr__(self, "psi3", self.psi1)
        if self.psi4 is None:
            object.__setattr__(self, "psi4", self.psi2)
        for name in ("psi1", "psi2", "psi3", "psi4", "beta1", "beta2"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < np.inf):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")

    @classmethod
    def unit(cls) -> "FunctionChoice":
        """The undeformed-compatible choice: all six functions equal to 1."""
        return cls()

    @classmethod
    def from_families(
        cls, psi_family: "FunctionFamily", beta_family: "FunctionFamily", q: float
    ) -> "FunctionChoice":
        psi = psi_family.evaluate(q)
        beta = beta_family.evaluate(q)
        return cls(psi1=psi, psi2=psi, beta1=beta, beta2=beta)


@dataclass(frozen=True)
class FunctionFamily:
    """Either the constant function 1 or the power q**exponent.

    A family is evaluated afresh at every grid point of a sweep, so a single
    object describes the arbitrary-function choice across all of them.
    """

    kind: str = CONSTANT_ONE
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (CONSTANT_ONE, POWER_OF_Q):
            raise ValueError(f"unknown function family kind {self.kind!r}")
        object.__setattr__(self, "exponent", float(self.exponent))

    def evaluate(self, q: float) -> float:
        if self.kind == CONSTANT_ONE:
            return 1.0
        return q ** self.exponent

    def label(self) -> str:
        if self.kind == CONSTANT_ONE:
            return "1"
        return f"q^{self.exponent:g}"

    @classmethod
    def parse(cls, text: str) -> "FunctionFamily":
        """Parse "1", "q", or "q^<exponent>"."""
        text = text.strip()
        if text == "1":
            return cls(CONSTANT_ONE)
        if text == "q":
            return cls(POWER_OF_Q, 1.0)
        if text.startswith("q^"):
            try:
                return cls(POWER_OF_Q, float(text[2:]))
            except ValueError:
                pass
        raise ValueError(f"cannot parse function family {text!r}; expected '1', 'q' or 'q^<float>'")


def dressing_vector(
    arguments: Sequence[float],
    p: DeformationParam,
    psi1: float,
    psi2: float,
    dtype=np.float64,
) -> np.ndarray:
    """Dressing eigenvalues F(n), one per evaluation point in ``arguments``.

    Points may be negative: the shifted dressing of the second oscillator
    in a pair evaluates at ``1 - n``, which drops below zero on a truncated
    space.  A negative radicand raises :class:`RadicandError` naming the
    first offending point.
    """
    n = np.asarray(arguments, dtype=dtype)
    s, g1, g2 = dtype(p.s), dtype(psi1), dtype(psi2)
    zero = n == 0
    if g1 == g2:
        # level 0 takes the limit; 1 keeps the unused 0/0 branch quiet
        m = np.where(zero, 1, n)
        r = np.where(zero, g1 * s / np.sinh(s), g1 * np.sinh(m * s) / (m * np.sinh(s)))
    else:
        m = np.where(zero, dtype(GENERAL_LIMIT_LEVEL), n)
        r = (np.exp(m * s) * g1 - np.exp(-m * s) * g2) / (2 * m * np.sinh(s))
    bad = np.flatnonzero(r < 0)
    if bad.size:
        raise RadicandError(
            f"negative radicand at level n={arguments[bad[0]]} with psi1={psi1}, psi2={psi2}"
        )
    return np.sqrt(r)


def f_value(n: float, p: DeformationParam, psi1: float, psi2: float) -> float:
    """Dressing eigenvalue at occupation ``n`` (see :func:`dressing_vector`)."""
    return float(dressing_vector([n], p, psi1, psi2)[0])


def ladder_ops(
    space: TruncatedFockSpace, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard annihilation, creation and number matrices.

    ``a`` lowers with coefficient sqrt(n), its transpose raises, and the
    number operator is diag(0, ..., cutoff-1).  The matrices are real, so
    the creation operator equals the conjugate transpose of ``a``.
    """
    d = space.cutoff
    a = np.zeros((d, d), dtype=dtype)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(dtype(n))
    n_hat = np.diag(np.arange(d).astype(dtype))
    return a, a.T.copy(), n_hat


def dressing_diag(
    space: TruncatedFockSpace,
    p: DeformationParam,
    psi1: float,
    psi2: float,
    dtype=np.float64,
) -> np.ndarray:
    """Diagonal dressing matrix, one eigenvalue per retained level."""
    return np.diag(dressing_vector(range(space.cutoff), p, psi1, psi2, dtype=dtype))


def ladder_band(
    space: TruncatedFockSpace,
    p: DeformationParam,
    psi1: float,
    psi2: float,
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of the dressed ladder pair and the shifted number operator.

    Returns ``(v, nu)``: ``v[n-1] = sqrt(n) F(n)`` for ``n = 1 .. cutoff-1``
    is the superdiagonal of ``a_q`` and the subdiagonal of ``a_q_dag``, and
    ``nu[n] = n - ln(psi2)/s`` is the diagonal of the deformed number
    operator.  ``F(0)`` is never evaluated.
    """
    levels = np.arange(space.cutoff).astype(dtype)
    v = np.sqrt(levels[1:]) * dressing_vector(range(1, space.cutoff), p, psi1, psi2, dtype=dtype)
    nu = levels - np.log(dtype(psi2)) / dtype(p.s)
    return v, nu


def deformed_ladder_ops(
    space: TruncatedFockSpace,
    p: DeformationParam,
    psi1: float,
    psi2: float,
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dressed ladder pair and the shifted number operator as dense matrices.

    Returns ``(a_q, a_q_dag, n_deformed)`` with ``a_q = a F(N)``,
    ``a_q_dag = F(N) a_dag`` and ``n_deformed = N - ln(psi2)/s``, expanded
    from :func:`ladder_band`.  The band is real, so ``a_q_dag`` equals the
    conjugate transpose of ``a_q``.
    """
    v, nu = ladder_band(space, p, psi1, psi2, dtype=dtype)
    return np.diag(v, 1), np.diag(v, -1), np.diag(nu)
