"""Tests for halo-exchange schedules."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D, HaloSchedule


@pytest.fixture
def schedule(grid):
    return HaloSchedule(CurveBlockDecomposition(grid, 4, "hilbert"))


class TestScheduleStructure:
    def test_send_recv_transpose(self, schedule):
        for r in range(4):
            for owner, ids in schedule.recv_nodes[r].items():
                assert np.array_equal(schedule.send_nodes[owner][r], ids)

    def test_recv_nodes_owned_by_sender(self, schedule):
        decomp = schedule.decomp
        for r in range(4):
            for owner, ids in schedule.recv_nodes[r].items():
                assert np.all(decomp.owner_of_nodes(ids) == owner)
                assert owner != r

    def test_recv_covers_all_offrank_neighbors(self, schedule):
        decomp = schedule.decomp
        grid = decomp.grid
        for r in range(4):
            owned = decomp.nodes_of_rank(r)
            neigh = grid.node_neighbors(owned).ravel()
            off = neigh[decomp.owner_map[neigh] != r]
            needed = np.unique(off)
            got = np.sort(np.concatenate(list(schedule.recv_nodes[r].values())))
            assert np.array_equal(got, needed)

    def test_halo_sizes_scale_with_perimeter(self):
        """Doubling the tile side should roughly double the halo, not
        quadruple it (perimeter, not area)."""
        small = HaloSchedule(CurveBlockDecomposition(Grid2D(16, 16), 4, "hilbert"))
        large = HaloSchedule(CurveBlockDecomposition(Grid2D(32, 32), 4, "hilbert"))
        ratio = large.halo_sizes().mean() / small.halo_sizes().mean()
        assert 1.5 < ratio < 2.5


class TestExchange:
    def test_received_values_match_owner_data(self, schedule):
        vm = VirtualMachine(4, MachineModel.cm5())
        nnodes = schedule.decomp.grid.nnodes
        values = np.arange(float(nnodes))
        out = schedule.exchange(vm, values).to_dicts(4, received=True)
        for r in range(4):
            for owner, payload in out[r].items():
                ids = schedule.recv_nodes[r][owner]
                assert np.array_equal(payload.ravel(), values[ids])

    def test_multi_component_exchange(self, schedule):
        vm = VirtualMachine(4, MachineModel.cm5())
        nnodes = schedule.decomp.grid.nnodes
        values = np.stack([np.arange(float(nnodes)), np.arange(float(nnodes)) * 2])
        out = schedule.exchange(vm, values, ncomponents=2).to_dicts(4, received=True)
        for r in range(4):
            for owner, payload in out[r].items():
                ids = schedule.recv_nodes[r][owner]
                assert payload.shape == (2, ids.size)
                assert np.array_equal(payload[1], values[1, ids])

    def test_exchange_charges_time(self, schedule):
        vm = VirtualMachine(4, MachineModel.cm5())
        schedule.exchange(vm, np.zeros(schedule.decomp.grid.nnodes))
        assert vm.elapsed() > 0
        assert vm.comm_time.max() > 0

    def test_wrong_size_rejected(self, schedule):
        vm = VirtualMachine(4, MachineModel.cm5())
        with pytest.raises(ValueError, match="cover all"):
            schedule.exchange(vm, np.zeros(3))

    def test_component_mismatch_rejected(self, schedule):
        vm = VirtualMachine(4, MachineModel.cm5())
        values = np.zeros((2, schedule.decomp.grid.nnodes))
        with pytest.raises(ValueError, match="components"):
            schedule.exchange(vm, values, ncomponents=3)

    def test_single_rank_no_halo(self):
        grid = Grid2D(8, 8)
        schedule = HaloSchedule(CurveBlockDecomposition(grid, 1))
        vm = VirtualMachine(1)
        out = schedule.exchange(vm, np.zeros(grid.nnodes))
        assert out.to_dicts(1, received=True) == [{}]
        assert vm.elapsed() == 0.0


def test_building_and_stepping_a_simulation_leaves_numpy_ma_unloaded():
    """``np.unique`` imports ``numpy.ma`` (~30 ms) on NumPy 2.4, so the
    schedule dedupes its pairs by hand; a fresh interpreter, since the
    rest of the suite may have imported it."""
    code = (
        "import sys; from repro.pic import Simulation, SimulationConfig; "
        "Simulation(SimulationConfig(nx=32, ny=16, nparticles=2048, p=4, policy='dynamic')).run(3); "
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert done.stdout.split()[-1] == "False"
