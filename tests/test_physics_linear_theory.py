"""The steppers against linear theory: a cold Langmuir oscillation.

A cold electron plasma displaced by ``delta * sin(kx)`` from a quiet
lattice oscillates at the plasma frequency ``w_p = sqrt(density)``
(charge -1, mass 1, weight ``density * ncells / n``) for every k.  The
exactness matrix only compares implementations with one another, so a
factor shared by the deposit, gather or push of every path passes it;
the oscillation frequency does not.
"""

import numpy as np
import pytest

from repro.mesh import Grid2D
from repro.particles.arrays import ParticleArray
from repro.pic import SequentialPIC
from repro.pic.yee import YeePIC

DENSITY = 0.01


def displaced_lattice(grid: Grid2D, per_side: int) -> ParticleArray:
    """``per_side**2`` cold particles per cell on a lattice, displaced by a sin(kx) mode."""
    x0 = (np.arange(grid.nx * per_side) + 0.5) * grid.lx / (grid.nx * per_side)
    y0 = (np.arange(grid.ny * per_side) + 0.5) * grid.ly / (grid.ny * per_side)
    x, y = (a.ravel() for a in np.meshgrid(x0, y0, indexing="ij"))
    x = (x + 0.05 * grid.dx * np.sin(2 * np.pi * x / grid.lx)) % grid.lx
    n = x.size
    zero = np.zeros(n)
    return ParticleArray(
        x, y, zero, zero, zero, np.full(n, -1.0), np.ones(n),
        np.full(n, DENSITY * grid.ncells / n), np.arange(n),
    )  # fmt: skip


def measured_omega(make_stepper) -> float:
    """ω / ω_p from the zero crossings of Ex's sin(kx) mode over ~2.6 periods."""
    grid = Grid2D(64, 8)
    pic = make_stepper(grid, displaced_lattice(grid, per_side=2))
    wp = np.sqrt(DENSITY)
    mode = np.sin(2 * np.pi * np.arange(grid.nx) * grid.dx / grid.lx)
    amplitude = []
    for _ in range(int(2.6 * 2 * np.pi / wp / pic.dt)):
        pic.step()
        amplitude.append(pic.fields.ex.mean(axis=0) @ mode)
    a = np.array(amplitude)
    i = np.nonzero(np.sign(a[1:]) != np.sign(a[:-1]))[0]
    crossings = i + a[i] / (a[i] - a[i + 1])  # linear interpolation in steps
    assert crossings.size >= 4
    half_period = np.diff(crossings).mean() * pic.dt
    return np.pi / half_period / wp


@pytest.mark.parametrize(
    "make_stepper",
    [
        pytest.param(lambda g, p: SequentialPIC(g, p), id="era-maxwell"),
        pytest.param(lambda g, p: SequentialPIC(g, p, field_solver="electrostatic"), id="era-electrostatic"),
        pytest.param(lambda g, p: YeePIC(g, p), id="yee"),
    ],
)  # fmt: skip
def test_langmuir_oscillation_at_the_plasma_frequency(make_stepper):
    assert measured_omega(make_stepper) == pytest.approx(1.0, abs=0.01)
