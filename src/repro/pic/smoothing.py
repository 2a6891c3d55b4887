"""Binomial smoothing of deposited sources.

Plain CIC deposition injects grid-scale noise into rho and J; on a
collocated centred-difference Maxwell grid the highest-k modes have
(near-)zero numerical group velocity, so that noise accumulates instead
of radiating away and eventually heats the plasma.  The standard remedy
is a binomial (1-2-1) digital filter applied to the deposited sources —
a nearest-neighbour stencil, so in the parallel code its data needs are
covered by the same halo pattern as the field solve.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.util import require

__all__ = ["binomial_smooth", "binomial_smooth_numpy"]


def binomial_smooth(a: np.ndarray, passes: int = 1) -> np.ndarray:
    """Apply ``passes`` rounds of the 2-D binomial 1-2-1 filter.

    Periodic boundaries; preserves the array mean exactly (the filter is
    a convex combination), hence total deposited charge is conserved.
    Each pass is the compiled ``smooth`` of :mod:`repro.native` when it is
    active and takes the array, with the floats of
    :func:`binomial_smooth_numpy`, which runs otherwise.
    """
    require(passes >= 0, f"passes must be >= 0, got {passes}")
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim == 2, f"expected a 2-D field array, got shape {a.shape}")
    compiled = native.kernels()
    out = a
    for _ in range(passes):
        smoothed = None if compiled is None else compiled.smooth(out)
        out = binomial_smooth_numpy(out) if smoothed is None else smoothed
    return out


def binomial_smooth_numpy(a: np.ndarray, passes: int = 1) -> np.ndarray:
    """The NumPy body of :func:`binomial_smooth` after its validation:
    fallback and oracle of the compiled pass."""
    out = a
    for _ in range(passes):
        sx = 0.25 * (np.roll(out, 1, axis=1) + 2.0 * out + np.roll(out, -1, axis=1))
        out = 0.25 * (np.roll(sx, 1, axis=0) + 2.0 * sx + np.roll(sx, -1, axis=0))
    return out
