"""Shard-thread backend: sharding, byte-equality of the fan-outs with one
in-process kernel call, error propagation, and the Simulation-level
bit-identity contract across worker counts (accounting, results, fault
recovery, checkpoint/resume)."""

import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import ParticlePartitioner
from repro.machine import FaultEvent, FaultPlan
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.parallel_exec import FlatBackend, create_backend, resolve_workers
from repro.parallel_exec.kernels import gather_push_slice, reduce_rank_rows, scatter_segment
from repro.particles import ParticlePool, gaussian_blob
from repro.pic import Simulation, SimulationConfig
from repro.pic.deposition import CHANNELS
from tests._looped_oracle import LoopedSimulation


# ----------------------------------------------------------------------
# resolve_workers / graceful degradation
# ----------------------------------------------------------------------
class TestResolveWorkers:
    @pytest.mark.parametrize(
        "spec,expected", [(None, 0), (0, 0), (1, 1), (4, 4), ("0", 0), ("3", 3)]
    )
    def test_values(self, spec, expected):
        assert resolve_workers(spec) == expected

    def test_auto_is_positive(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(" AUTO ") >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestGracefulFallback:
    def test_workers_leq_one_is_in_process(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not even warn
            assert create_backend(0, Grid2D(8, 8)) is None
            assert create_backend(1, Grid2D(8, 8)) is None
            assert create_backend(None, Grid2D(8, 8)) is None

    def test_workers_ignored_off_flat_era(self):
        cfg = SimulationConfig(
            nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern"
        )
        with pytest.warns(RuntimeWarning, match="ignored"):
            sim = Simulation(cfg, workers=2)
        assert sim.backend is None
        sim.close()


class TestDegradedObservability:
    """An in-process run of a ``workers`` request must be visible in results + telemetry."""

    def test_engine_mismatch_sets_degraded_marker(self):
        cfg = SimulationConfig(
            nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern"
        )
        with pytest.warns(RuntimeWarning, match="ignored"):
            sim = Simulation(cfg, workers=2)
        assert sim.degraded is not None
        assert sim.degraded["requested_workers"] == 2
        assert "kernel='modern'" in sim.degraded["reason"]
        sim.close()

    def test_true_runs_carry_no_marker(self):
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1)
        sim = Simulation(cfg)  # in-process was *requested*: not degraded
        sim.enable_telemetry()
        result = sim.run(1)
        assert sim.degraded is None
        assert "degraded" not in result.to_dict()  # byte-identity preserved
        assert "degraded" not in sim.telemetry.header()
        sim.close()


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
class TestShards:
    @pytest.fixture(scope="class")
    def backend(self):
        b = create_backend(3, Grid2D(8, 8))
        assert isinstance(b, FlatBackend)
        yield b
        b.close()

    @pytest.mark.parametrize(
        "counts",
        [
            [10, 10, 10, 10, 10, 10],
            [0, 0, 0, 0],
            [100, 0, 0, 1],
            [1],
            [0, 50, 0, 50, 0],
            list(range(20)),
        ],
    )
    def test_cover_all_ranks_once(self, backend, counts):
        shards = backend._shards(np.asarray(counts, dtype=np.int64))
        assert len(shards) <= backend.nworkers
        covered = []
        for r0, r1 in shards:
            assert r1 > r0
            covered.extend(range(r0, r1))
        assert covered == list(range(len(counts)))


# ----------------------------------------------------------------------
# the fan-outs against one in-process kernel call over [0, p)
# ----------------------------------------------------------------------
_GRID = Grid2D(16, 12)
#: per-rank counts: balanced, empty ranks between full ones, one full rank
#: followed by empty ones only (a shard without particles), an empty pool
_COUNTS = {
    "balanced": [150, 130, 170, 140, 160, 150],
    "empty-ranks": [0, 400, 0, 0, 350, 0, 50],
    "empty-shard": [600, 0, 0, 0],
    "no-particles": [0, 0, 0],
}


def _pool_of(counts) -> ParticlePool:
    """Key-sorted particles cut into rank segments of the given sizes."""
    counts = np.asarray(counts, dtype=np.int64)
    particles = gaussian_blob(_GRID, int(counts.sum()), rng=5)
    (ordered,) = ParticlePartitioner(_GRID, "hilbert").initial_partition(particles, 1)
    return ParticlePool(ordered, np.concatenate(([0], np.cumsum(counts))))


def _columns(parts) -> list[bytes]:
    return [getattr(parts, name).tobytes() for name in type(parts).__slots__]


def _scattered(result) -> list[bytes]:
    """Everything a scatter hands the stepper, rows summed in shard order."""
    rows, entries, uniq, batch = result
    acc = reduce_rank_rows(rows, np.zeros(rows.shape[1:]))
    return [a.tobytes() for a in (acc, entries, uniq, batch.src, batch.dst, batch.offsets,
                                  batch.ids, batch.values)]  # fmt: skip


@pytest.fixture(params=["compiled", "numpy"])
def either_kernels(request):
    """Both bodies of the particle kernels (one under ``--numpy-kernels``)."""
    if request.param == "numpy":
        request.getfixturevalue("numpy_kernels")


class TestShardThreads:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7, 12])  # 12 > p everywhere
    @pytest.mark.parametrize("name", sorted(_COUNTS))
    def test_fanouts_equal_one_kernel_call(self, either_kernels, name, workers):
        pool, ref = _pool_of(_COUNTS[name]), _pool_of(_COUNTS[name])
        p = pool.p
        node_owner = CurveBlockDecomposition(_GRID, p, "hilbert").owner_map
        planes = tuple(np.random.default_rng(8).normal(size=(6, *_GRID.shape)))
        backend = FlatBackend(workers, _GRID)
        try:
            row = np.empty((1, len(CHANNELS), _GRID.nnodes))
            _, *tallies = scatter_segment(_GRID, ref.array, ref.counts, 0, node_owner, row[0])
            got = backend.scatter(pool, node_owner)
            assert got[0].shape[0] == len(backend._shards(pool.counts)) <= max(min(workers, p), 1)
            assert _scattered(got) == _scattered((row, *tallies))

            for _ in range(2):  # the second from the positions the first pushed
                gather_push_slice(_GRID, ref.array, planes, 0.05)
                backend.gather_push(pool, planes, 0.05)
                assert _columns(pool.array) == _columns(ref.array)
        finally:
            backend.close()

    def test_more_threads_than_cores_under_a_short_switch_interval(self):
        """Shards write disjoint slices of the pool and their own kept
        scratch (per thread), nothing else they share: racing threads
        change no byte."""
        pool, ref = _pool_of(_COUNTS["balanced"]), _pool_of(_COUNTS["balanced"])
        node_owner = CurveBlockDecomposition(_GRID, pool.p, "hilbert").owner_map
        planes = tuple(np.random.default_rng(8).normal(size=(6, *_GRID.shape)))
        backend = FlatBackend(6, _GRID)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 20.0
            for _ in range(25):
                row = np.empty((1, len(CHANNELS), _GRID.nnodes))
                _, *tallies = scatter_segment(_GRID, ref.array, ref.counts, 0, node_owner, row[0])
                got = backend.scatter(pool, node_owner)
                assert _scattered(got) == _scattered((row, *tallies))
                gather_push_slice(_GRID, ref.array, planes, 0.05)
                backend.gather_push(pool, planes, 0.05)
                assert _columns(pool.array) == _columns(ref.array)
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)
            backend.close()

    def test_shard_exception_reaches_the_caller_as_itself(self):
        """The original exception object and traceback, not a formatted copy;
        the sibling shards finish first and the backend keeps serving."""
        pool = _pool_of(_COUNTS["balanced"])
        node_owner = CurveBlockDecomposition(_GRID, pool.p, "hilbert").owner_map
        backend = FlatBackend(3, _GRID)
        try:
            with pytest.raises(IndexError) as caught:
                backend.scatter(pool, node_owner[:5])  # no owner for most nodes
            frames = [frame.name for frame in caught.traceback]
            assert "scatter_segment" in frames and "ghost_slots_numpy" in frames
            assert backend.scatter(pool, node_owner)[0].shape[0] == 3
        finally:
            backend.close()

    def test_shard_warning_behaves_as_in_process(self):
        """A non-finite position makes the NumPy CIC body warn: raised in the
        caller under an ``error`` filter, recorded under ``catch_warnings``."""
        pool = _pool_of(_COUNTS["balanced"])
        pool.array.x[-1] = np.inf
        planes = tuple(np.zeros((6, *_GRID.shape)))
        backend = FlatBackend(2, _GRID)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RuntimeWarning, match="invalid value"):
                    backend.gather_push(pool, planes, 0.05)
            with pytest.warns(RuntimeWarning, match="invalid value"):
                backend.gather_push(pool, planes, 0.05)
        finally:
            backend.close()

    def test_closed_backend_rejects_tasks(self):
        pool = _pool_of(_COUNTS["balanced"])
        backend = FlatBackend(2, _GRID)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="shutdown"):
            backend.gather_push(pool, tuple(np.zeros((6, *_GRID.shape))), 0.05)

    def test_profile_keeps_the_workers_frames(self, tmp_path):
        with Simulation(_cfg(), workers=2) as sim:
            sim.run(1)  # before profiling: not in the profile
            sim.enable_profiling()
            sim.run(2)
            sim.save_profile(tmp_path)
        stacks = dict(
            line.rsplit(" ", 1) for line in (tmp_path / "profile.folded").read_text().splitlines()
        )
        assert int(stacks["workers;scatter"]) > 0 and int(stacks["workers;gather_push"]) > 0
        assert sim.profiler.samples[("workers", "scatter")][0] == 2 * 2  # shards x iterations


# ----------------------------------------------------------------------
# Simulation-level bit-identity across worker counts
# ----------------------------------------------------------------------
def _cfg(**kwargs) -> SimulationConfig:
    base = dict(
        nx=16,
        ny=12,
        nparticles=800,
        p=6,
        distribution="irregular",
        policy="dynamic",
        seed=3,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


def _result_dict(cfg, workers, niters=4, **run_kwargs):
    sim = Simulation(cfg, workers=workers)
    try:
        result = sim.run(niters, **run_kwargs)
        return result.to_dict()
    finally:
        sim.close()


def _strip_wall(d: dict) -> dict:
    return {k: v for k, v in d.items() if "wall" not in k}


class TestSimulationInvariance:
    @pytest.mark.parametrize("movement", ["lagrangian", "eulerian"])
    def test_result_dicts_identical(self, movement):
        cfg = _cfg(movement=movement)
        ref = _strip_wall(_result_dict(cfg, 0))
        for workers in (1, 2, 4):
            got = _strip_wall(_result_dict(cfg, workers))
            assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
                ref, sort_keys=True, default=str
            ), f"workers={workers} perturbed the result dict"

    def test_three_way_with_looped(self):
        """workers=2 == the per-rank oracle: the whole result document."""
        flat = _strip_wall(_result_dict(_cfg(), 2))
        looped = _strip_wall(LoopedSimulation(_cfg()).run(4).to_dict())
        assert json.dumps(flat, sort_keys=True, default=str) == json.dumps(
            looped, sort_keys=True, default=str
        )

    def test_fault_recovery_identical(self, tmp_path):
        """A rank kill + checkpoint recovery shrinks the machine; the
        backend must survive the shrink with bit-identical results."""
        plan = FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=3),))
        outcomes = {}
        for workers in (0, 2):
            sim = Simulation(_cfg(), workers=workers)
            try:
                sim.install_faults(plan)
                result = sim.run(
                    5,
                    checkpoint_every=2,
                    checkpoint_path=tmp_path / f"ck_w{workers}.npz",
                )
                assert result.n_recoveries == 1
                outcomes[workers] = _strip_wall(result.to_dict())
            finally:
                sim.close()
        assert json.dumps(outcomes[0], sort_keys=True, default=str) == json.dumps(
            outcomes[2], sort_keys=True, default=str
        )

    def test_checkpoints_identical_across_worker_counts(self, tmp_path):
        """Checkpoints never record a worker count and their payload is
        bit-identical whichever backend wrote them."""
        paths = {}
        for workers in (0, 2):
            path = tmp_path / f"ck_w{workers}.npz"
            sim = Simulation(_cfg(), workers=workers)
            try:
                sim.run(3)
                sim.checkpoint(path)
            finally:
                sim.close()
            paths[workers] = path
        a, b = np.load(paths[0], allow_pickle=True), np.load(paths[2], allow_pickle=True)
        assert sorted(a.files) == sorted(b.files)
        for key in a.files:
            va, vb = a[key], b[key]
            assert va.dtype == vb.dtype, key
            if va.dtype == object:
                assert repr(va.tolist()) == repr(vb.tolist()), key
            else:
                np.testing.assert_array_equal(vb, va, err_msg=f"checkpoint key {key}")
        a.close()
        b.close()

    def test_resume_across_worker_counts(self, tmp_path):
        """checkpoint with workers=2, resume with workers=0 (and the
        reverse) — both must equal the uninterrupted serial run."""
        cfg = _cfg()
        full = _strip_wall(_result_dict(cfg, 0, niters=6))
        for ck_workers, res_workers in ((2, 0), (0, 2)):
            path = tmp_path / f"ck_{ck_workers}_{res_workers}.npz"
            sim = Simulation(cfg, workers=ck_workers)
            try:
                sim.run(3, checkpoint_every=3, checkpoint_path=path)
            finally:
                sim.close()
            resumed = Simulation.from_checkpoint(path, workers=res_workers)
            try:
                result = resumed.run(3)
                got = _strip_wall(result.to_dict())
            finally:
                resumed.close()
            assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
                full, sort_keys=True, default=str
            ), f"checkpoint workers={ck_workers} resume workers={res_workers}"

    def test_backend_attached_and_released(self):
        before = set(threading.enumerate())
        sim = Simulation(_cfg(), workers=2)
        assert sim.backend is not None and sim.backend.nworkers == 2
        sim.run(1)
        shard_threads = set(threading.enumerate()) - before
        assert shard_threads and all(t.name.startswith("repro-shard") for t in shard_threads)
        sim.close()
        assert sim.backend is None
        assert set(threading.enumerate()) == before

    def test_context_manager(self):
        with Simulation(_cfg(), workers=2) as sim:
            assert sim.backend is not None
            sim.run(1)
        assert sim.backend is None
