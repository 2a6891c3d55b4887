"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob, uniform_plasma


def pytest_addoption(parser):
    parser.addoption(
        "--numpy-kernels",
        action="store_true",
        help="run every test on the NumPy kernel bodies, as on a host without a C compiler",
    )


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Force the NumPy bodies of the particle kernels: what ``repro.native``
    answers after a failed build (forked workers inherit it)."""
    forced = (None, native.NativeStatus(False, "forced by the numpy_kernels fixture"))
    monkeypatch.setattr(native, "_loaded", forced)


@pytest.fixture(autouse=True)
def _kernel_path(request):
    if request.config.getoption("--numpy-kernels"):
        request.getfixturevalue("numpy_kernels")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid():
    """A small power-of-two grid."""
    return Grid2D(16, 8)


@pytest.fixture
def big_grid():
    return Grid2D(64, 32)


@pytest.fixture
def vm4():
    return VirtualMachine(4, MachineModel.cm5())


@pytest.fixture
def vm8():
    return VirtualMachine(8, MachineModel.cm5())


@pytest.fixture
def decomp(grid):
    return CurveBlockDecomposition(grid, 4, "hilbert")


@pytest.fixture
def uniform_particles(grid):
    return uniform_plasma(grid, 512, rng=7)


@pytest.fixture
def blob_particles(grid):
    return gaussian_blob(grid, 512, rng=7)
