"""Tests for the FDTD Maxwell solver."""

import numpy as np
import pytest

from repro.mesh import FieldState, Grid2D
from repro.pic.maxwell import MaxwellSolver, curl


@pytest.fixture
def grid():
    return Grid2D(32, 32, lx=32.0, ly=32.0)


@pytest.fixture
def solver(grid):
    return MaxwellSolver(grid)


class TestCurl:
    def test_curl_of_constant_is_zero(self):
        f = np.ones((8, 8))
        cx, cy, cz = curl(f, f, f, 1.0, 1.0)
        assert np.all(cx == 0) and np.all(cy == 0) and np.all(cz == 0)

    def test_curl_of_linear_in_sine(self):
        """curl of fz = sin(2 pi x / L): cy = -d fz/dx."""
        n = 64
        x = np.arange(n)
        fz = np.tile(np.sin(2 * np.pi * x / n), (n, 1))
        _, cy, _ = curl(np.zeros((n, n)), np.zeros((n, n)), fz, 1.0, 1.0)
        expected = -2 * np.pi / n * np.cos(2 * np.pi * x / n)
        assert np.allclose(cy[0], expected, atol=1e-3)


class TestCFL:
    def test_limit_value(self, grid, solver):
        assert solver.cfl_limit() == pytest.approx(1.0 / np.sqrt(2.0))

    def test_validate_rejects_large_dt(self, solver):
        with pytest.raises(ValueError, match="CFL"):
            solver.validate_dt(1.0)

    def test_validate_rejects_nonpositive(self, solver):
        with pytest.raises(ValueError):
            solver.validate_dt(0.0)


class TestVacuumPropagation:
    def test_plane_wave_advects(self, grid, solver):
        """A z-polarized plane wave should propagate at c = 1."""
        fields = FieldState.zeros(grid)
        k = 2 * np.pi / grid.lx
        x = (np.arange(grid.nx) + 0.0)[None, :] * np.ones((grid.ny, 1))
        fields.ez[:] = np.sin(k * x)
        fields.by[:] = -np.sin(k * x)  # rightward-travelling combination
        dt = 0.5
        steps = 16
        for _ in range(steps):
            solver.step(fields, dt)
        shift = dt * steps  # distance travelled
        expected = np.sin(k * (x - shift))
        # modest tolerance: centred scheme has dispersion error
        err = np.abs(fields.ez - expected).max()
        assert err < 0.15

    def test_vacuum_energy_bounded(self, grid, solver):
        fields = FieldState.zeros(grid)
        rng = np.random.default_rng(0)
        fields.ez[:] = rng.normal(size=grid.shape)
        e0 = fields.field_energy(grid)
        for _ in range(200):
            solver.step(fields, 0.5)
        e1 = fields.field_energy(grid)
        assert e1 == pytest.approx(e0, rel=0.05)

    def test_zero_fields_stay_zero(self, grid, solver):
        fields = FieldState.zeros(grid)
        solver.step(fields, 0.5)
        assert fields.ex.sum() == 0 and fields.bz.sum() == 0


class TestSources:
    def test_uniform_current_with_subtraction_is_inert(self, grid, solver):
        fields = FieldState.zeros(grid)
        fields.jz[:] = 5.0
        solver.step(fields, 0.5)
        assert np.allclose(fields.ez, 0.0)

    def test_localized_current_radiates(self, grid, solver):
        fields = FieldState.zeros(grid)
        fields.jz[16, 16] = 1.0
        for _ in range(10):
            solver.step(fields, 0.5)
        assert fields.field_energy(grid) > 0

    def test_div_b_stays_zero(self, grid, solver):
        """From B = 0 initial data the discrete div B remains ~0."""
        fields = FieldState.zeros(grid)
        rng = np.random.default_rng(1)
        fields.jx[:] = rng.normal(size=grid.shape)
        fields.jy[:] = rng.normal(size=grid.shape)
        for _ in range(50):
            solver.step(fields, 0.5)
        assert solver.divergence_b(fields) < 1e-10
