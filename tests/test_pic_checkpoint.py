"""Tests for checkpoint/restart."""

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import uniform_plasma
from repro.pic import ParallelPIC, SequentialPIC
from repro.pic.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


class TestRoundtrip:
    def test_sequential_state_roundtrip(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        sim.run(7)
        path = save_checkpoint(tmp_path / "ck", grid, sim.fields, [sim.particles], 7)
        data = load_checkpoint(path)
        assert data.iteration == 7
        assert data.grid.nx == grid.nx and data.grid.lx == grid.lx
        assert data.fields.allclose(sim.fields)
        assert np.array_equal(data.particles[0].ids, sim.particles.ids)
        assert np.allclose(data.particles[0].x, sim.particles.x)

    def test_per_rank_sets_preserved(self, tmp_path, grid, uniform_particles):
        local = ParticlePartitioner(grid).initial_partition(uniform_particles, 4)
        from repro.mesh import FieldState

        fields = FieldState.zeros(grid)
        path = save_checkpoint(tmp_path / "ranks", grid, fields, local, 0)
        data = load_checkpoint(path)
        assert data.nranks == 4
        for a, b in zip(local, data.particles):
            assert a.n == b.n
            assert np.array_equal(a.ids, b.ids)

    def test_suffix_added(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "plain", grid, sim.fields, [sim.particles], 0)
        assert path.suffix == ".npz"
        assert load_checkpoint(tmp_path / "plain").iteration == 0


class TestExactRestart:
    def test_parallel_resume_is_bitexact(self, tmp_path):
        """Run 10 iterations; checkpoint at 5 and resume: identical state."""
        grid = Grid2D(16, 16)
        particles = uniform_plasma(grid, 1024, rng=3)

        def build(local):
            vm = VirtualMachine(4, MachineModel.cm5())
            decomp = CurveBlockDecomposition(grid, 4, "hilbert")
            return ParallelPIC(vm, grid, decomp, local)

        local = ParticlePartitioner(grid).initial_partition(particles, 4)
        reference = build([p.copy() for p in local])
        for _ in range(10):
            reference.step()

        first = build([p.copy() for p in local])
        for _ in range(5):
            first.step()
        path = save_checkpoint(tmp_path / "mid", grid, first.fields, first.particles, 5)

        data = load_checkpoint(path)
        resumed = build(data.particles)
        resumed.fields = data.fields
        for _ in range(5):
            resumed.step()

        ref_parts = reference.all_particles()
        res_parts = resumed.all_particles()
        order_a = np.argsort(ref_parts.ids)
        order_b = np.argsort(res_parts.ids)
        assert np.array_equal(ref_parts.x[order_a], res_parts.x[order_b])
        assert np.array_equal(ref_parts.ux[order_a], res_parts.ux[order_b])
        assert np.array_equal(reference.fields.ez, resumed.fields.ez)


class TestValidation:
    def test_negative_iteration_rejected(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x", grid, sim.fields, [sim.particles], -1)

    def test_empty_particle_list_rejected(self, tmp_path, grid):
        from repro.mesh import FieldState

        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x", grid, FieldState.zeros(grid), [], 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nothere.npz")

    def test_missing_file_message_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nothere"):
            load_checkpoint(tmp_path / "nothere")

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "bogus.npz"
        path.write_bytes(b"this is not an npz archive at all")
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_bare_npy_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "array.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(5))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_foreign_npz_names_missing_keys(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.arange(3), b=np.arange(4))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version" in str(err.value)
        assert "'a'" in str(err.value)  # lists what it DID find

    def test_truncated_archive_names_missing_keys(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "full", grid, sim.fields, [sim.particles], 3)
        data = dict(np.load(path))
        del data["fields"], data["particles"]
        np.savez(path, **data)
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "'fields'" in str(err.value) and "'particles'" in str(err.value)

    def test_unsupported_version(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "v9", grid, sim.fields, [sim.particles], 0)
        data = dict(np.load(path))
        data["version"] = np.array([9])
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="version 9"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "m", grid, sim.fields, [sim.particles], 0)
        data = dict(np.load(path))
        data["format"] = np.array(["other-tool"])
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="format marker"):
            load_checkpoint(path)


class TestAtomicWrite:
    def test_failed_write_preserves_existing(self, tmp_path, grid, uniform_particles, monkeypatch):
        """A crash mid-write must leave the previous checkpoint intact."""
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "ck", grid, sim.fields, [sim.particles], 1)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.pic.checkpoint._write_member", boom)
        with pytest.raises(OSError):
            save_checkpoint(path, grid, sim.fields, [sim.particles], 2)
        assert path.read_bytes() == before
        assert load_checkpoint(path).iteration == 1
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == [], f"temp litter left behind: {leftovers}"


class TestRunState:
    def test_run_state_and_sort_keys_roundtrip(self, tmp_path, grid, uniform_particles):
        local = ParticlePartitioner(grid).initial_partition(uniform_particles, 2)
        from repro.mesh import FieldState

        run_state = {"config": {"nx": grid.nx}, "vm": {"clocks": [0.5, 0.25]}}
        keys = np.concatenate([np.arange(p.n) * 3 for p in local])
        path = save_checkpoint(
            tmp_path / "rs", grid, FieldState.zeros(grid), local, 4,
            run_state=run_state, sort_keys=keys,
        )
        data = load_checkpoint(path)
        assert data.run_state == run_state
        assert data.sort_keys.dtype == keys.dtype
        assert np.array_equal(data.sort_keys, keys)

    def test_no_run_state_loads_as_none(self, tmp_path, grid, uniform_particles):
        sim = SequentialPIC(grid, uniform_particles)
        path = save_checkpoint(tmp_path / "bare", grid, sim.fields, [sim.particles], 0)
        data = load_checkpoint(path)
        assert data.run_state is None and data.sort_keys is None

    def test_sort_keys_length_mismatch_rejected(self, tmp_path, grid, uniform_particles):
        from repro.mesh import FieldState

        with pytest.raises(ValueError):
            save_checkpoint(
                tmp_path / "x", grid, FieldState.zeros(grid),
                [uniform_particles], 0, sort_keys=np.arange(uniform_particles.n + 1),
            )
