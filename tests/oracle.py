"""Dense operators, dense states and per-level dressings, kept only as test oracles.

The package builds no ``d x d`` operator and no dense state vector, and
evaluates the dressing in two places: :func:`qdgates.fockspace.f_value`
(float64, ``math``) and :func:`qdgates.fockspace.ladder_band` (longdouble,
vectorized).  The helpers here are the plain ladder matrices, the band
expanded into dense deformed ones, a state's amplitudes written out as a
vector over every joint occupation, and the dressing level by level in each
of those two precisions.
"""

import math

import numpy as np

from qdgates.fockspace import GENERAL_LIMIT_LEVEL, RadicandError, ladder_band

LD = np.longdouble


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
    matrices, expanded from :func:`qdgates.fockspace.ladder_band`."""
    v, nu = ladder_band(space, p, psi1, psi2)
    return np.diag(v, 1), np.diag(v, -1), np.diag(nu)


def libm_dressing(n, p, g1, g2):
    """F(n) by the dressing formula, level 0 branches included, evaluated
    with ``math``."""
    s = p.s
    if g1 == g2:
        r = g1 * s / math.sinh(s) if n == 0 else g1 * math.sinh(n * s) / (n * math.sinh(s))
    else:
        m = GENERAL_LIMIT_LEVEL if n == 0 else n
        r = (math.exp(m * s) * g1 - math.exp(-m * s) * g2) / (2 * m * math.sinh(s))
    if r < 0:
        raise RadicandError(f"negative radicand at level n={n} with psi1={g1}, psi2={g2}")
    return math.sqrt(r)


def longdouble_dressing(levels, p, psi1, psi2):
    """F(n) for levels n >= 1, one longdouble scalar at a time."""
    s, g1, g2 = LD(p.s), LD(psi1), LD(psi2)
    values = []
    for level in levels:
        n = LD(level)
        if g1 == g2:
            r = g1 * np.sinh(n * s) / (n * np.sinh(s))
        else:
            r = (np.exp(n * s) * g1 - np.exp(-n * s) * g2) / (2 * n * np.sinh(s))
        if r < 0:
            raise RadicandError(
                f"negative radicand at level n={level} with psi1={psi1}, psi2={psi2}"
            )
        values.append(np.sqrt(r))
    return np.array(values, dtype=LD)
