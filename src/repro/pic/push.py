"""Push phase: relativistic Boris particle pusher.

The standard energy-conserving Boris scheme (half electric kick,
magnetic rotation, half electric kick) in normalized units (c = 1),
advancing momenta ``u = gamma * v`` and then positions.  The paper's
push phase has no interprocessor communication under the direct
Lagrangian method — this kernel is pure per-particle computation.

Because every update is per-particle independent and in place,
:func:`boris_push` is segment-oblivious: the pooled engine calls it
once over a pooled :class:`~repro.particles.arrays.ParticlePool` array
and the per-rank views advance bit-identically to ``p`` per-rank calls.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray
from repro.util import require

__all__ = ["boris_push", "push_numpy"]


def boris_push(
    grid: Grid2D,
    particles: ParticleArray,
    e: np.ndarray,
    b: np.ndarray,
    dt: float,
) -> None:
    """Advance particle momenta and positions in place by one step.

    Parameters
    ----------
    grid:
        Domain geometry (positions are wrapped periodically).
    particles:
        Particle set; ``ux, uy, uz, x, y`` are updated in place.
    e, b:
        ``(3, n)`` interpolated fields at the particles.
    dt:
        Time step.
    """
    require(dt > 0, f"dt must be > 0, got {dt}")
    e = np.asarray(e, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = particles.n
    require(e.shape == (3, n) and b.shape == (3, n), "e and b must be (3, n)")
    if n and particles.m.min() <= 0:
        raise ValueError("boris_push requires strictly positive particle masses")
    push_numpy(grid, particles, e, b, dt)


def push_numpy(
    grid: Grid2D, particles: ParticleArray, e: np.ndarray, b: np.ndarray, dt: float
) -> None:
    """The body of :func:`boris_push` after its validation, and the oracle
    of the compiled gather + push's push."""
    qmdt2 = 0.5 * dt * particles.q / particles.m  # (n,)

    # half electric acceleration
    umx = particles.ux + qmdt2 * e[0]
    umy = particles.uy + qmdt2 * e[1]
    umz = particles.uz + qmdt2 * e[2]

    # magnetic rotation
    gamma_m = np.sqrt(1.0 + umx**2 + umy**2 + umz**2)
    tx = qmdt2 * b[0] / gamma_m
    ty = qmdt2 * b[1] / gamma_m
    tz = qmdt2 * b[2] / gamma_m
    t2 = tx**2 + ty**2 + tz**2
    sx = 2.0 * tx / (1.0 + t2)
    sy = 2.0 * ty / (1.0 + t2)
    sz = 2.0 * tz / (1.0 + t2)
    # u' = u- + u- x t
    upx = umx + (umy * tz - umz * ty)
    upy = umy + (umz * tx - umx * tz)
    upz = umz + (umx * ty - umy * tx)
    # u+ = u- + u' x s
    uplusx = umx + (upy * sz - upz * sy)
    uplusy = umy + (upz * sx - upx * sz)
    uplusz = umz + (upx * sy - upy * sx)

    # second half electric acceleration
    particles.ux[:] = uplusx + qmdt2 * e[0]
    particles.uy[:] = uplusy + qmdt2 * e[1]
    particles.uz[:] = uplusz + qmdt2 * e[2]

    # position update with the new momentum
    gamma = particles.gamma()
    particles.x[:], particles.y[:] = grid.wrap_positions(
        particles.x + dt * particles.ux / gamma,
        particles.y + dt * particles.uy / gamma,
    )
