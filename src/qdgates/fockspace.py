"""Truncated Fock space, the dressing functions, and the dressing radicand.

Operators act on the retained levels ``0 .. cutoff-1``.  The deformed
annihilation/creation pair is the standard pair dressed by the diagonal
factor

    F(n) = sqrt((q**n * psi1 - q**-n * psi2) / (n * (q - q**-1)))

built from two positive functions of q, and the deformed number operator is
the standard one shifted by ``ln(psi2)/s`` times the identity.

The radicand is written once per precision, with one zero rule
(:data:`ZERO_ULPS`): :func:`radicand` in float64 with ``math``, whose bits do
not depend on numpy's SIMD kernels, and the longdouble band
:func:`qdgates.audit.ladder_band`, kept with the algebra audit, so this
module needs no numpy.  ``F(0)`` only multiplies zero ladder entries and is
never evaluated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .qnumber import DeformationParam

# A radicand sum below this many eps of its leading term psi1*sinh(n*s) is 0.
ZERO_ULPS = 8

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


def _is_number(value) -> bool:
    """A float, or a plain int (no boolean) that float64 holds: ``float(value)`` cannot overflow."""
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def check_dressing(**values) -> None:
    """Reject the first dressing value that is not a finite positive int or float."""
    for name, value in values.items():
        if not (_is_number(value) and 0 < value < math.inf):
            raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class FunctionChoice:
    """Values of the six arbitrary dressing functions at the working q.

    ``psi1``/``psi2`` dress the control-side oscillator pair and ``beta1``/
    ``beta2`` the target side.  ``psi3``/``psi4`` belong to the second
    oscillator in the Hadamard construction and default to ``psi1``/``psi2``.
    All six sit under square roots and must be finite positive numbers.
    ``FunctionChoice()``, all six equal to 1, is the undeformed-compatible choice.
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
        for value in (self.psi1, self.psi2, self.psi3, self.psi4, self.beta1, self.beta2):
            # a finite positive float passes at once; anything else gets the full, named check
            if not (type(value) is float and 0 < value < math.inf):
                check_dressing(psi1=self.psi1, psi2=self.psi2, psi3=self.psi3, psi4=self.psi4,
                               beta1=self.beta1, beta2=self.beta2)
                break


@dataclass(frozen=True)
class FunctionFamily:
    """Either the constant function 1 or the power q**exponent.

    A sweep config evaluates its families once at each grid strength, when it
    is built, so a single object describes the arbitrary-function choice
    across all of them.
    """

    kind: str = CONSTANT_ONE
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (CONSTANT_ONE, POWER_OF_Q):
            raise ValueError(f"kind must be {CONSTANT_ONE!r} or {POWER_OF_Q!r}, got {self.kind!r}")
        if not _is_number(self.exponent) or self.kind == CONSTANT_ONE and self.exponent != 0:
            raise ValueError(f"exponent must be a number (0 for family 1), got {self.exponent!r}")
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
        raise ValueError(f"must be '1', 'q' or 'q^<float>', got {text!r}")

    @classmethod
    def from_payload(cls, spelling) -> "FunctionFamily":
        """The family a config spells: a string for :meth:`parse`, or a ``{kind, exponent}``
        object, a key left out keeping its default.  A message reads after the field's name."""
        if isinstance(spelling, dict) and spelling.keys() <= {"kind", "exponent"}:
            return cls(**spelling)
        if not isinstance(spelling, str):
            raise ValueError(f"must be a family string or object, got {spelling!r}")
        return cls.parse(spelling)


def radicand(n: float, s: float, psi1: float, psi2: float) -> float:
    """``F(n)**2`` at ``n != 0`` in float64, computed with ``math`` as
    ``(psi1*sinh(ns) + (psi1 - psi2)*exp(-ns)/2) / (n*sinh(s))``, whose second
    term is exactly 0 at ``psi1 == psi2`` and is then not evaluated.  The sum
    rounds by at most about 4.5 ulps of ``|psi1*sinh(ns)|`` (ns as rounded),
    so one strictly below ``ZERO_ULPS*eps*|psi1*sinh(ns)|`` in magnitude is
    zero within rounding and counts as 0.  Where ``math`` overflows it is ``inf``."""
    if n == 0:
        raise ValueError("the dressing radicand is 0/0 at n=0; F(0) is never evaluated")
    x = n * s
    try:
        head = psi1 * math.sinh(x)
        total = head if psi1 == psi2 else head + (psi1 - psi2) * math.exp(-x) / 2
        if abs(total) < ZERO_ULPS * math.ulp(1.0) * abs(head):
            total = 0.0
        return total / (n * math.sinh(s))
    except OverflowError:  # math.sinh and math.exp raise where float arithmetic gives inf
        return math.inf


def f_value(n: float, p: DeformationParam, psi1: float, psi2: float) -> float:
    """Dressing eigenvalue F(n), the square root of :func:`radicand`; a negative
    radicand raises :class:`RadicandError` naming the point, one beyond float64 a ValueError."""
    r = radicand(n, p.s, psi1, psi2)
    if r < 0:
        raise RadicandError(f"negative radicand at level n={n} with psi1={psi1}, psi2={psi2}")
    if not math.isfinite(r):
        raise ValueError(f"dressing radicand overflows float64 at level n={n} "
                         f"with psi1={psi1}, psi2={psi2}")
    return math.sqrt(r)
