r"""Field-solve phase: finite-difference Maxwell solver.

A leapfrog FDTD update on the collocated periodic node grid with
centred differences — each node reads only its four stencil neighbours,
exactly the access pattern the paper's field-solve analysis assumes
("each grid point needs data from its four neighboring grid points").

Normalized units (``c = eps0 = mu0 = 1``):

.. math::

    B^{n+1/2} = B^{n} - (dt/2)\,\nabla\times E^{n} \\
    E^{n+1}   = E^{n} + dt\,(\nabla\times B^{n+1/2} - J^{n+1/2}) \\
    B^{n+1}   = B^{n+1/2} - (dt/2)\,\nabla\times E^{n+1}

The deposited current is mean-subtracted per component, the periodic
analogue of a neutralizing background: without it a net drift current
would secularly grow a uniform E mode.  Each step ends with one Marder
pass (see :class:`MaxwellSolver`).
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.util import require, require_positive

__all__ = ["MaxwellSolver", "curl"]


def _ddx(a: np.ndarray, dx: float) -> np.ndarray:
    """Centred x-derivative on the periodic (ny, nx) grid."""
    return (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2.0 * dx)


def _ddy(a: np.ndarray, dy: float) -> np.ndarray:
    """Centred y-derivative on the periodic (ny, nx) grid."""
    return (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2.0 * dy)


def curl(
    fx: np.ndarray, fy: np.ndarray, fz: np.ndarray, dx: float, dy: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curl of a 2-D field (d/dz = 0), centred differences, periodic."""
    cx = _ddy(fz, dy)
    cy = -_ddx(fz, dx)
    cz = _ddx(fy, dx) - _ddy(fx, dy)
    return cx, cy, cz


class MaxwellSolver:
    """Leapfrog FDTD Maxwell integrator on a :class:`Grid2D`.

    Parameters
    ----------
    grid:
        Domain geometry; sets the CFL limit
        ``dt < min(dx, dy) / sqrt(2)``.

    A step subtracts the domain mean of each J component before the E
    update and ends with one Marder pass: plain CIC current deposition
    does not satisfy the discrete continuity equation, so ``div E - rho``
    drifts and eventually drives an unphysical instability, which the
    correction ``E += d * dt * grad(div E - rho)`` diffuses away from
    nearest-neighbour data only — the field solve's own communication
    pattern.
    """

    #: Unit-operation count per node per solve, for the cost model: the
    #: two curls + three field updates touch each node a fixed number of
    #: times (matches the paper's ``(m/p) * T_f_comp`` form).
    OPS_PER_NODE = 1.0

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid

    def cfl_limit(self) -> float:
        """Largest stable time step for the centred scheme."""
        return min(self.grid.dx, self.grid.dy) / np.sqrt(2.0)

    def validate_dt(self, dt: float) -> None:
        """Raise if ``dt`` violates the CFL condition."""
        require_positive(dt, "dt")
        limit = self.cfl_limit()
        require(dt <= limit, f"dt={dt:g} violates CFL limit {limit:g} for {self.grid!r}")

    def step(self, fields: FieldState, dt: float) -> None:
        """Advance E and B in place by one time step using fields.j*.

        The compiled ``field_step`` of :mod:`repro.native` when it is active
        and the fields are plain ``(ny, nx)`` float64 planes, with the floats
        of :meth:`_step_numpy`, which runs otherwise.
        """
        self.validate_dt(dt)
        compiled = native.kernels()
        if compiled is None or not compiled.field_step(self, fields, dt):
            self._step_numpy(fields, dt)

    def _step_numpy(self, fields: FieldState, dt: float) -> None:
        """The NumPy body of :meth:`step` after its validation: fallback and
        oracle of the compiled stencil."""
        dx, dy = self.grid.dx, self.grid.dy
        jx, jy, jz = (j - j.mean() for j in (fields.jx, fields.jy, fields.jz))

        # B half step
        cx, cy, cz = curl(fields.ex, fields.ey, fields.ez, dx, dy)
        fields.bx -= 0.5 * dt * cx
        fields.by -= 0.5 * dt * cy
        fields.bz -= 0.5 * dt * cz
        # E full step
        cx, cy, cz = curl(fields.bx, fields.by, fields.bz, dx, dy)
        fields.ex += dt * (cx - jx)
        fields.ey += dt * (cy - jy)
        fields.ez += dt * (cz - jz)
        # B half step
        cx, cy, cz = curl(fields.ex, fields.ey, fields.ez, dx, dy)
        fields.bx -= 0.5 * dt * cx
        fields.by -= 0.5 * dt * cy
        fields.bz -= 0.5 * dt * cz
        # one Marder pass: diffuse the Gauss-law error out of E
        residual = self.gauss_residual(fields)
        scale = self.marder_scale(dt)
        fields.ex += scale * _ddx(residual, dx)
        fields.ey += scale * _ddy(residual, dy)

    def gauss_residual(self, fields: FieldState) -> np.ndarray:
        """``div E - (rho - <rho>)`` on the nodes (zero for exact Gauss law)."""
        div = _ddx(fields.ex, self.grid.dx) + _ddy(fields.ey, self.grid.dy)
        return div - (fields.rho - fields.rho.mean())

    def marder_scale(self, dt: float) -> float:
        """``d * dt`` of a Marder pass, ``d = min(dx, dy)^2 / (4 dt)``: the
        diffusion-stable coefficient, at the explicit-diffusion limit."""
        d = min(self.grid.dx, self.grid.dy) ** 2 / (4.0 * dt)
        return d * dt

    def divergence_b(self, fields: FieldState) -> float:
        """Max |div B| — conserved at 0 by the scheme from zero initial B."""
        div = _ddx(fields.bx, self.grid.dx) + _ddy(fields.by, self.grid.dy)
        return float(np.abs(div).max())
