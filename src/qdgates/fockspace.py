"""Truncated Fock space, the dressing functions, and the deformed ladder band.

Operators act on the retained levels ``0 .. cutoff-1``.  The deformed
annihilation/creation pair is the standard pair dressed by the diagonal
factor

    F(n) = sqrt((q**n * psi1 - q**-n * psi2) / (n * (q - q**-1)))

built from two positive functions of q, and the deformed number operator is
the standard one shifted by ``ln(psi2)/s`` times the identity.

The dressing is evaluated in exactly two places, one per precision:

* :func:`f_value` is F at one point, in float64 with ``math`` (libm), so
  its bits do not depend on the SIMD kernels numpy picks for ``exp`` and
  ``sinh``.  It is the qubit layer's amplitude at argument 1.  It takes any
  point: ``n = 0`` is a removable 0/0 point when ``psi1 == psi2``, assigned
  its limit ``psi * s / sinh(s)`` (under the square root), and is evaluated
  just off zero otherwise; a pair's second oscillator has its dressing
  shifted to ``1 - n``, which is negative from ``n = 2`` up.
* :func:`ladder_band` is the whole band in :data:`BAND_DTYPE`
  (``np.longdouble``): every operator here is diagonal or has a single
  nonzero off-diagonal, so it returns two vectors, the band ``sqrt(n)
  F(n)``, ``n = 1 .. cutoff-1``, shared by ``a_q`` (above the diagonal) and
  ``a_q_dag`` (below it), and the shifted number diagonal.  The audits need
  identity residuals below one float64 ulp of the operator magnitude, so
  the band is always extended precision.  The level-0 value would multiply
  only zero matrix entries, so the band never evaluates it: the dressed
  operators exist whenever every level ``n >= 1`` has a nonnegative
  radicand, even for ``psi1 < psi2``, where the off-zero stand-in is
  negative.

No dense ``d x d`` operator is built here; the tests keep the dense
matrices as their oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnumber import DeformationParam

# The precision of the ladder band, and so of every algebra audit.
BAND_DTYPE = np.longdouble

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


def f_value(n: float, p: DeformationParam, psi1: float, psi2: float) -> float:
    """Dressing eigenvalue F(n) at any point, computed with ``math``; a
    negative radicand raises :class:`RadicandError` naming the point."""
    s = p.s
    if psi1 == psi2:
        r = psi1 * s / math.sinh(s) if n == 0 else psi1 * math.sinh(n * s) / (n * math.sinh(s))
    else:
        m = GENERAL_LIMIT_LEVEL if n == 0 else n
        r = (math.exp(m * s) * psi1 - math.exp(-m * s) * psi2) / (2 * m * math.sinh(s))
    if r < 0:
        raise RadicandError(f"negative radicand at level n={n} with psi1={psi1}, psi2={psi2}")
    return math.sqrt(r)


def ladder_band(
    space: TruncatedFockSpace, p: DeformationParam, psi1: float, psi2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of the dressed ladder pair and the shifted number operator.

    Returns ``(v, nu)`` in :data:`BAND_DTYPE`: ``v[n-1] = sqrt(n) F(n)`` for
    ``n = 1 .. cutoff-1`` is the superdiagonal of ``a_q`` and the subdiagonal
    of ``a_q_dag``, and ``nu[n] = n - ln(psi2)/s`` is the diagonal of the
    deformed number operator.  ``F(0)`` is never evaluated; a negative
    radicand raises :class:`RadicandError` naming the first such level.
    """
    levels = np.arange(space.cutoff).astype(BAND_DTYPE)
    n = levels[1:]
    s, g1, g2 = BAND_DTYPE(p.s), BAND_DTYPE(psi1), BAND_DTYPE(psi2)
    if g1 == g2:
        r = g1 * np.sinh(n * s) / (n * np.sinh(s))
    else:
        r = (np.exp(n * s) * g1 - np.exp(-n * s) * g2) / (2 * n * np.sinh(s))
    bad = np.flatnonzero(r < 0)
    if bad.size:
        raise RadicandError(
            f"negative radicand at level n={int(bad[0]) + 1} with psi1={psi1}, psi2={psi2}"
        )
    return np.sqrt(n) * np.sqrt(r), levels - np.log(g2) / s
