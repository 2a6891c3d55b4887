"""Sequential reference PIC: the paper's four phases on one processor.

:class:`SequentialPIC` is the ground truth the parallel implementation
is verified against (the integration tests assert numerical equivalence
per iteration) and the single-processor baseline for the efficiency
table (paper Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import deposit_charge_current
from repro.pic.interpolation import interpolate_fields
from repro.pic.maxwell import MaxwellSolver
from repro.pic.poisson import PoissonSolver
from repro.pic.push import boris_push
from repro.pic.smoothing import binomial_smooth
from repro.util import require

__all__ = ["SequentialPIC"]


class SequentialPIC:
    """Single-processor 2D3V relativistic electromagnetic PIC.

    Parameters
    ----------
    grid:
        Domain geometry.
    particles:
        Initial particle set (owned and mutated by the stepper).
    dt:
        Time step; defaults to 90% of the field solver's CFL limit.
    field_solver:
        ``"maxwell"`` (electromagnetic FDTD, the paper's code) or
        ``"electrostatic"`` (periodic Poisson solve each step, B = 0 —
        the Lubeck & Faber-style variant).
    """

    def __init__(
        self,
        grid: Grid2D,
        particles: ParticleArray,
        *,
        dt: float | None = None,
        field_solver: str = "maxwell",
    ) -> None:
        require(
            field_solver in ("maxwell", "electrostatic"),
            f"unknown field_solver {field_solver!r}",
        )
        self.grid = grid
        self.particles = particles
        self.fields = FieldState.zeros(grid)
        self.solver = MaxwellSolver(grid)
        self.field_solver = field_solver
        self.poisson = PoissonSolver(grid) if field_solver == "electrostatic" else None
        self.dt = dt if dt is not None else 0.9 * self.solver.cfl_limit()
        self.solver.validate_dt(self.dt)
        self.iteration = 0

    def scatter(self) -> None:
        """Scatter phase: deposit rho and J from the particles, then one
        binomial pass over the four (see :mod:`repro.pic.smoothing` for why)."""
        smoothed = binomial_smooth(deposit_charge_current(self.grid, self.particles))
        self.fields.rho, self.fields.jx, self.fields.jy, self.fields.jz = smoothed

    def field_solve(self) -> None:
        """Field-solve phase: advance E, B with the deposited currents.

        Electrostatic mode replaces the FDTD update with an exact
        periodic Poisson solve of the deposited charge (B stays 0).
        """
        if self.field_solver == "electrostatic":
            phi = self.poisson.solve_fft(self.fields.rho)
            self.fields.ex, self.fields.ey = self.poisson.electric_field(phi)
        else:
            self.solver.step(self.fields, self.dt)

    def gather_push(self) -> None:
        """Gather + push phases: interpolate fields and move particles."""
        e, b = interpolate_fields(self.grid, self.fields, self.particles)
        boris_push(self.grid, self.particles, e, b, self.dt)

    def step(self) -> None:
        """One full iteration: scatter, field solve, gather, push."""
        self.scatter()
        self.field_solve()
        self.gather_push()
        self.iteration += 1

    def run(self, niters: int) -> None:
        """Run ``niters`` iterations."""
        require(niters >= 0, "niters must be >= 0")
        for _ in range(niters):
            self.step()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_energy(self) -> float:
        """Field energy plus particle kinetic energy."""
        return self.fields.field_energy(self.grid) + self.particles.kinetic_energy()

    def charge_conservation_error(self) -> float:
        """|total deposited charge - sum of particle charges| (area-weighted)."""
        deposited = self.fields.total_charge(self.grid)
        direct = float((self.particles.w * self.particles.q).sum())
        return abs(deposited - direct) / max(abs(direct), 1e-300)

    def __repr__(self) -> str:
        return (
            f"SequentialPIC(grid={self.grid!r}, n={self.particles.n}, "
            f"dt={self.dt:g}, iter={self.iteration})"
        )
