"""Scalar arithmetic for deformed numbers.

The deformation is parameterized by a strength ``s`` with ``q = e**s``, and
the deformed counterpart of a real number ``x`` is

    [x] = (q**x - q**-x) / (q - q**-1) = sinh(s*x) / sinh(s)

which collapses to ``x`` itself as ``s -> 0``.  The ``sinh`` form is used
throughout because it stays fully accurate for small ``s``, where the power
form cancels catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeformationParam:
    """Deformation strength ``s`` with ``q = e**s`` computed once.

    ``s`` must lie in (0, 1]; the undeformed point s = 0 is never stored and
    is only probed through limits.
    """

    s: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.s <= 1.0):  # compared before float() can overflow on an int
            raise ValueError(f"deformation strength must satisfy 0 < s <= 1, got {self.s!r}")
        s = float(self.s)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "q", math.exp(s))


def q_number(x: float, p: DeformationParam) -> float:
    """Deformed counterpart of the real number ``x``.

    Odd in ``x``, fixes 0 and 1, and tends to ``x`` as the deformation is
    switched off.
    """
    return math.sinh(p.s * x) / math.sinh(p.s)


def q_factorial(n: int, p: DeformationParam) -> float:
    """Product [n][n-1]...[1] of deformed integers; the empty product is 1."""
    if isinstance(n, float) and not n.is_integer():
        raise ValueError(f"q_factorial needs an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"q_factorial needs a nonnegative integer, got {n}")
    out = 1.0
    for k in range(1, n + 1):
        out *= q_number(float(k), p)
    return out
