"""The steppers against the physics they discretise.

A cold electron plasma displaced by ``delta * sin(kx)`` from a quiet
lattice oscillates at the plasma frequency ``w_p = sqrt(density)``
(charge -1, mass 1, weight ``density * ncells / n``) for every k.  The
exactness matrix only compares implementations with one another, so a
factor shared by the deposit, gather or push of every path passes it;
the oscillation frequency does not.  Nor does the discrete continuity
equation the zigzag currents satisfy by construction.
"""

import numpy as np
import pytest

from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles.arrays import ParticleArray
from repro.pic import SequentialPIC
from repro.pic.deposition import deposit_charge_current, ghost_slots
from repro.pic.yee import YeePIC
from repro.pic.zigzag import continuity_residual, deposit_zigzag_entries, zigzag_entries

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


def cic_rho(grid: Grid2D, x: np.ndarray, y: np.ndarray, charge: np.ndarray) -> np.ndarray:
    """The CIC node charge density of point charges at ``(x, y)``."""
    n = x.size
    zero = np.zeros(n)
    parts = ParticleArray(x, y, zero, zero, zero, charge, np.ones(n), np.ones(n), np.arange(n))
    return deposit_charge_current(grid, parts)[0]


@pytest.mark.parametrize("p", [1, 3, 5])
def test_zigzag_currents_conserve_charge_through_the_ghost_slots(p):
    """``(rho_new - rho_old) / dt + div J`` vanishes to machine precision
    for random moves under one cell, a fifth of them across the periodic
    seam, with J binned as the distributed modern stepper bins it: by the
    ghost slots of ``p`` rank segments, each slot's sum then added to its
    node as its owner merges it."""
    rng = np.random.default_rng(p)
    grid = Grid2D(12, 10, lx=3.0, ly=2.5)
    n, dt = 3000, 0.4
    x_old, y_old = rng.uniform(0.0, grid.lx, n), rng.uniform(0.0, grid.ly, n)
    moves = rng.uniform(-0.999, 0.999, (2, n)) * [[grid.dx], [grid.dy]]
    x_new, y_new = x_old + moves[0], y_old + moves[1]
    seam = rng.random(n) < 0.2
    x_old[seam] = rng.choice([0.0, grid.lx], seam.sum()) - moves[0, seam] / 2
    y_old[seam] = rng.choice([0.0, grid.ly], seam.sum()) - moves[1, seam] / 2
    x_new[seam], y_new[seam] = x_old[seam] + moves[0, seam], y_old[seam] + moves[1, seam]
    charge = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)

    jx_nodes, jx_values, _, jy_values = zigzag_entries(
        grid, x_old, y_old, x_new, y_new, charge, dt
    )
    counts = np.diff(np.concatenate(([0], np.sort(rng.integers(0, n + 1, p - 1)), [n])))
    owner = CurveBlockDecomposition(grid, p, "hilbert").owner_map
    # the two sub-segments' cells: rows 0 and 2 of the jx node block
    cells = np.ascontiguousarray(jx_nodes.reshape(4, n)[::2])
    slots = ghost_slots(grid, owner, np.repeat(np.arange(p), counts), cells)
    assert p == 1 or slots.nodes.size > 0
    acc, summed = np.empty((2, grid.nnodes)), np.empty((2, slots.nodes.size))
    values = np.stack((jx_values.ravel(), jy_values.ravel()))
    deposit_zigzag_entries(values, slots.dest, slots.pair_of, acc, summed)
    for c in range(2):
        np.add.at(acc[c], slots.nodes, summed[c])
    jx, jy = acc.reshape(2, *grid.shape)

    rho_old = cic_rho(grid, x_old, y_old, charge)
    rho_new = cic_rho(grid, x_new, y_new, charge)
    residual = continuity_residual(grid, rho_old, rho_new, jx, jy, dt)
    scale = np.abs(charge).sum() / (grid.dx * grid.dy * dt)
    assert np.abs(residual).max() <= 1e-13 * scale
