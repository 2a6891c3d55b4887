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


def binomial_smooth(a: np.ndarray) -> np.ndarray:
    """One pass of the 2-D binomial 1-2-1 filter over the last two axes of
    a ``(ny, nx)`` plane or a ``(k, ny, nx)`` block of them, into a fresh array.

    Periodic boundaries; preserves each plane's mean exactly (the filter is
    a convex combination), hence total deposited charge is conserved.
    The compiled ``smooth`` of :mod:`repro.native` when it is active and
    takes the array, with the floats of :func:`binomial_smooth_numpy`,
    which runs otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    require(a.ndim in (2, 3), f"expected a (ny, nx) or (k, ny, nx) array, got shape {a.shape}")
    compiled = native.kernels()
    smoothed = None if compiled is None else compiled.smooth(a)
    return binomial_smooth_numpy(a) if smoothed is None else smoothed


def binomial_smooth_numpy(a: np.ndarray) -> np.ndarray:
    """The NumPy body of :func:`binomial_smooth` after its validation:
    fallback and oracle of the compiled pass."""
    sx = 0.25 * (np.roll(a, 1, axis=-1) + 2.0 * a + np.roll(a, -1, axis=-1))
    return 0.25 * (np.roll(sx, 1, axis=-2) + 2.0 * sx + np.roll(sx, -1, axis=-2))
