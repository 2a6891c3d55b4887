"""Particle samplers for the paper's workloads and physics demos.

The paper evaluates two spatial distributions (its Figure 15):

* *uniform* — particles spread evenly over the whole domain
  (:func:`uniform_plasma`);
* *irregular* — particles concentrated in the centre of the domain
  (:func:`gaussian_blob`), chosen "highly irregular in order to study
  the effect of such distribution" on the methods.

Two extra samplers support the physics examples: the classic two-stream
instability (:func:`two_stream`) and a ring beam
(:func:`ring_distribution`).

All samplers use normalized units: charge -1, mass 1 (electrons), with
per-particle weight ``w = density * ncells / n`` so the mean charge
density is ``density`` regardless of particle count; a neutralizing ion
background is implied (the field solver subtracts the mean charge
density).

The default ``density = 0.01`` makes the plasma weakly coupled: the
plasma frequency is ``sqrt(density) = 0.1`` and the Debye length
``vth / w_p = 0.5 dx`` at the default ``vth`` — resolved by the grid, so
PIC self-heating (the finite-grid instability, which sets in when the
Debye length is far below the cell size) stays negligible over
benchmark-length runs: at four particles a cell the kinetic energy grows
by about 5 % in 200 iterations, and tier-1 bounds it at 10 %
(``tests/test_physics_linear_theory.py``).  Physics demos that want ``w_p = 1`` pass
``density=1.0`` explicitly and accept the stronger heating.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray
from repro.util import as_rng, require

__all__ = ["uniform_plasma", "gaussian_blob", "two_stream", "ring_distribution"]


#: Default mean charge-density magnitude (see the module docstring).
DEFAULT_DENSITY = 0.01


def _finalize(
    grid: Grid2D,
    x: np.ndarray,
    y: np.ndarray,
    ux: np.ndarray,
    uy: np.ndarray,
    uz: np.ndarray,
    density: float,
) -> ParticleArray:
    require(density > 0, f"density must be > 0, got {density}")
    n = x.shape[0]
    x, y = grid.wrap_positions(x, y)
    weight = density * grid.ncells / max(n, 1)
    return ParticleArray(
        x=x,
        y=y,
        ux=ux,
        uy=uy,
        uz=uz,
        q=np.full(n, -1.0),
        m=np.ones(n),
        w=np.full(n, weight),
        ids=np.arange(n, dtype=np.int64),
    )


def uniform_plasma(
    grid: Grid2D,
    n: int,
    *,
    vth: float = 0.05,
    density: float = DEFAULT_DENSITY,
    rng: int | None | np.random.Generator = None,
) -> ParticleArray:
    """Uniform spatial distribution with Maxwellian momenta.

    Parameters
    ----------
    grid:
        Domain geometry.
    n:
        Number of particles.
    vth:
        Thermal momentum spread (normalized, ``gamma*v`` units).
    density:
        Mean charge-density magnitude (sets the plasma frequency).
    rng:
        Seed or generator.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    gen = as_rng(rng)
    x = gen.uniform(0.0, grid.lx, n)
    y = gen.uniform(0.0, grid.ly, n)
    u = gen.normal(0.0, vth, (3, n))
    return _finalize(grid, x, y, u[0], u[1], u[2], density)


def gaussian_blob(
    grid: Grid2D,
    n: int,
    *,
    sigma_frac: float = 0.08,
    vth: float = 0.05,
    density: float = DEFAULT_DENSITY,
    center: tuple[float, float] | None = None,
    rng: int | None | np.random.Generator = None,
) -> ParticleArray:
    """The paper's *irregular* distribution: a Gaussian blob at the centre.

    Parameters
    ----------
    sigma_frac:
        Blob standard deviation as a fraction of the domain extent
        (0.08 concentrates ~99% of particles inside the central quarter,
        matching the "highly irregular" intent of Figure 15).
    center:
        Blob centre; defaults to the domain centre.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    require(sigma_frac > 0, f"sigma_frac must be > 0, got {sigma_frac}")
    gen = as_rng(rng)
    cx, cy = center if center is not None else (grid.lx / 2.0, grid.ly / 2.0)
    x = gen.normal(cx, sigma_frac * grid.lx, n)
    y = gen.normal(cy, sigma_frac * grid.ly, n)
    u = gen.normal(0.0, vth, (3, n))
    return _finalize(grid, x, y, u[0], u[1], u[2], density)


def two_stream(
    grid: Grid2D,
    n: int,
    *,
    vdrift: float = 0.2,
    vth: float = 0.01,
    density: float = DEFAULT_DENSITY,
    rng: int | None | np.random.Generator = None,
) -> ParticleArray:
    """Two counter-streaming beams along x (two-stream instability setup).

    Half the particles drift at ``+vdrift``, half at ``-vdrift``, both
    with small thermal spread ``vth``; uniform in space.
    """
    require(n >= 0 and n % 2 == 0, f"n must be even and >= 0, got {n}")
    gen = as_rng(rng)
    x = gen.uniform(0.0, grid.lx, n)
    y = gen.uniform(0.0, grid.ly, n)
    ux = gen.normal(0.0, vth, n)
    ux[: n // 2] += vdrift
    ux[n // 2 :] -= vdrift
    uy = gen.normal(0.0, vth, n)
    uz = gen.normal(0.0, vth, n)
    return _finalize(grid, x, y, ux, uy, uz, density)


def ring_distribution(
    grid: Grid2D,
    n: int,
    *,
    radius_frac: float = 0.25,
    width_frac: float = 0.03,
    vth: float = 0.05,
    density: float = DEFAULT_DENSITY,
    rng: int | None | np.random.Generator = None,
) -> ParticleArray:
    """Particles on an annulus around the domain centre.

    A second irregular workload whose subdomains are *non-convex* —
    a stress test for alignment beyond the paper's centre blob.
    """
    require(n >= 0, f"n must be >= 0, got {n}")
    gen = as_rng(rng)
    theta = gen.uniform(0.0, 2.0 * np.pi, n)
    scale = min(grid.lx, grid.ly)
    r = gen.normal(radius_frac * scale, width_frac * scale, n)
    x = grid.lx / 2.0 + r * np.cos(theta)
    y = grid.ly / 2.0 + r * np.sin(theta)
    u = gen.normal(0.0, vth, (3, n))
    return _finalize(grid, x, y, u[0], u[1], u[2], density)
