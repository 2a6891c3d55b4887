"""Shard-thread backend: sharding, byte-equality of the fan-outs with one
in-process kernel call, error propagation, the team's helper threads
(idle cost, fork), and the Simulation-level bit-identity contract across
worker counts (accounting, results, fault recovery, checkpoint/resume)."""

import json
import os
import resource
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro import native
from repro.core import ParticlePartitioner
from repro.machine import FaultEvent, FaultPlan
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.parallel_exec import FlatBackend, create_backend, resolve_workers
from repro.parallel_exec.kernels import (
    gather_push_slice,
    reduce_rank_rows,
    scatter_segment,
)
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

    def test_modern_kernel_shards_on_the_team(self):
        """The modern stepper takes the simulation's backend, as the era's
        does: each particle phase is one call cut into a shard a worker."""
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern")
        with Simulation(cfg, workers=2) as sim:
            assert isinstance(sim.backend, FlatBackend) and sim.pic.backend is sim.backend
            sim.backend.drain_profile()
            sim.run(3)
            drained = sim.backend.drain_profile()
        assert {phase: tasks for phase, (tasks, _) in drained.items()} == {
            "scatter": 3 * 2, "gather_push": 3 * 2,
        }  # fmt: skip


class TestWorkerCountIsInvisible:
    """What a run reports does not depend on how many workers ran it."""

    @pytest.mark.parametrize("kernel", ["era", "modern"])
    def test_two_workers_report_the_in_process_run(self, either_kernels, kernel):
        """No warning, and the result document and the telemetry header of a
        ``workers=2`` run are those of the ``workers=0`` run."""
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1, kernel=kernel)
        reports = []
        for workers in (0, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with Simulation(cfg, workers=workers) as sim:
                    assert (sim.backend is not None) == (workers == 2)
                    sim.enable_telemetry()
                    reports.append((sim.run(3).to_dict(), sim.telemetry.header()))
        assert reports[1] == reports[0]


class TestDegradedObservability:
    """A run that fell back in-process would have to say so in its results
    and telemetry; no request falls back, so none carries the marker."""

    def test_engine_mismatch_sets_degraded_marker(self):
        """The one engine mismatch there was (``kernel='modern'`` at
        ``workers=2``, once run in-process with a warning and a marker)
        now takes the team like the era kernel: no warning, and the
        ``degraded`` field stays ``None`` and out of the document and the
        telemetry header."""
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1, kernel="modern")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with Simulation(cfg, workers=2) as sim:
                assert isinstance(sim.backend, FlatBackend) and sim.pic.backend is sim.backend
                sim.enable_telemetry()
                result = sim.run(1)
        assert result.degraded is None
        assert "degraded" not in result.to_dict()
        assert "degraded" not in sim.telemetry.header()

    def test_true_runs_carry_no_marker(self):
        cfg = SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=1)
        sim = Simulation(cfg)  # in-process was *requested*: not degraded
        sim.enable_telemetry()
        result = sim.run(1)
        assert result.degraded is None
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
        cuts = backend._cuts(np.concatenate(([0], np.cumsum(counts, dtype=np.int64))))
        assert len(cuts) - 1 <= backend.nworkers
        covered = []
        for r0, r1 in zip(cuts, cuts[1:]):
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
    """Everything a scatter hands the stepper, rows summed in shard order
    (the modern scatter has no tallies: ``None``)."""
    rows, entries, uniq, batch = result
    acc = reduce_rank_rows(rows, np.zeros(rows.shape[1:]))
    arrays = (acc, entries, uniq, batch.src, batch.dst, batch.offsets, batch.ids, batch.values)
    return [None if a is None else a.tobytes() for a in arrays]


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
            _, *tallies = scatter_segment(_GRID, ref.array, ref.counts, node_owner, row[0])
            got = backend.scatter(pool, node_owner)
            assert len(backend._cuts(pool.offsets)) - 1 <= max(min(workers, p), 1)
            assert got[0].shape == row.shape  # one output, as in-process
            assert _scattered(got) == _scattered((row, *tallies))

            for _ in range(2):  # the second from the positions the first pushed
                gather_push_slice(_GRID, ref.array, planes, 0.05)
                backend.gather_push(pool, planes, 0.05)
                assert _columns(pool.array) == _columns(ref.array)

            # the modern stepper's modes: the Yee gather + push, then the scatter of its moves
            moved = (ref.array.x.copy(), ref.array.y.copy(), 0.05)
            cells = np.empty((2, 4, pool.n), dtype=np.int64)
            want = gather_push_slice(
                _GRID, ref.array, planes, 0.05, None, cells[0], ref.counts, node_owner
            )
            got = backend.gather_push(pool, planes, 0.05, cells[1], node_owner)
            assert _columns(pool.array) == _columns(ref.array)
            assert cells[0].tobytes() == cells[1].tobytes()
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            _, *tallies = scatter_segment(
                _GRID, ref.array, ref.counts, node_owner, row[0], moved=moved
            )
            assert _scattered(backend.scatter(pool, node_owner, moved)) == _scattered((row, *tallies))
        finally:
            backend.close()

    def test_more_threads_than_cores_under_a_short_switch_interval(self):
        """Shards write disjoint slices of the pool, their own rows of the
        kept scratch and the bins of nodes their ranks own: racing threads
        change no byte, also when they outnumber the CPUs and block instead
        of spinning."""
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
                _, *tallies = scatter_segment(_GRID, ref.array, ref.counts, node_owner, row[0])
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
        """An input the compiled pass declines goes to the NumPy body on the
        calling thread: its exception reaches the caller as itself, with
        its traceback, and the backend keeps serving."""
        pool = _pool_of(_COUNTS["balanced"])
        node_owner = CurveBlockDecomposition(_GRID, pool.p, "hilbert").owner_map
        backend = FlatBackend(3, _GRID)
        try:
            with pytest.raises(IndexError) as caught:
                backend.scatter(pool, node_owner[:5])  # no owner for most nodes
            frames = [frame.name for frame in caught.traceback]
            assert "scatter_segment" in frames and "ghost_slots_numpy" in frames
            assert backend.scatter(pool, node_owner)[0].shape == (1, len(CHANNELS), _GRID.nnodes)
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
        with pytest.raises(RuntimeError, match="closed"):
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
# the team's helper threads: what they cost idle, and fork
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    """Process CPU time: every thread's."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class TestTeam:
    @pytest.fixture(autouse=True)
    def _team_only(self):
        if native.kernels() is None:
            pytest.skip("the NumPy bodies start no team")

    def test_idle_helpers_cost_nothing(self):
        """Past its spin window a parked helper sleeps: an open ``workers=2``
        simulation left alone for 200 ms grows the process CPU time by less
        than 5 % of that."""
        with Simulation(_cfg(), workers=2) as sim:
            sim.run(2)
            time.sleep(0.05)  # well past the 3 ms spin window
            cpu, wall = _cpu_seconds(), time.monotonic()
            time.sleep(0.2)
            cpu, wall = _cpu_seconds() - cpu, time.monotonic() - wall
        assert cpu < 0.05 * wall, f"{cpu * 1e3:.1f} ms of CPU in {wall * 1e3:.0f} ms idle"

    def test_helpers_outnumbering_the_cpus_never_spin(self):
        """With more threads than CPUs in the affinity mask the helpers block
        at once: 20 calls each followed by 1 ms of sleep inside the spin
        window leave them only the shards' own CPU time, not 20 ms each."""
        pool = _pool_of(_COUNTS["balanced"])
        node_owner = CurveBlockDecomposition(_GRID, pool.p, "hilbert").owner_map
        backend = FlatBackend(len(os.sched_getaffinity(0)) + 1, _GRID)
        try:
            assert backend._team[0] == 0  # spin: no
            clocks = [time.pthread_getcpuclockid(h.ident) for h in backend._helpers]
            backend.scatter(pool, node_owner)
            spent = -sum(map(time.clock_gettime, clocks))
            for _ in range(20):
                backend.scatter(pool, node_owner)
                time.sleep(0.001)
            spent += sum(map(time.clock_gettime, clocks))
        finally:
            backend.close()
        assert spent < 0.01, f"the helpers ran {spent * 1e3:.1f} ms of CPU"

    def test_calls_from_two_threads_take_turns(self):
        """The team serves one pass at a time: two threads stepping on one
        backend get the in-process bytes, each call."""
        pools = [_pool_of(_COUNTS["balanced"]) for _ in range(2)]
        node_owner = CurveBlockDecomposition(_GRID, pools[0].p, "hilbert").owner_map
        row = np.empty((1, len(CHANNELS), _GRID.nnodes))
        ref = pools[0].array.copy()
        want = _scattered((row, *scatter_segment(_GRID, ref, pools[0].counts, node_owner,
                                                 row[0])[1:]))  # fmt: skip
        backend, got = FlatBackend(2, _GRID), []

        def step(pool):
            for _ in range(20):
                got.append(_scattered(backend.scatter(pool, node_owner)))

        threads = [threading.Thread(target=step, args=(pool,)) for pool in pools]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            backend.close()
        assert len(got) == 40 and all(g == want for g in got)

    def test_helpers_spin_only_with_a_cpu_each(self):
        backend = FlatBackend(2, _GRID)
        try:
            assert backend._team[0] == (len(os.sched_getaffinity(0)) >= 2)
        finally:
            backend.close()

    def test_forked_process_runs_its_own_team(self, tmp_path):
        """Fork as the job service does (the ``fork`` context) while a
        ``workers=2`` simulation that has run stays open: the child builds
        and runs its own ``workers=2`` simulation to the parent's result,
        and a ``Scheduler`` batch launched from that parent completes."""
        import multiprocessing

        from repro.service import JobSpec, Scheduler

        context = multiprocessing.get_context("fork")
        with Simulation(_cfg(), workers=2) as sim:
            want = json.dumps(_strip_wall(sim.run(4).to_dict()), sort_keys=True, default=str)
            reader, writer = context.Pipe(duplex=False)

            def child():
                writer.send(json.dumps(_strip_wall(_result_dict(_cfg(), 2)), sort_keys=True,
                                       default=str))  # fmt: skip

            proc = context.Process(target=child)
            proc.start()
            got = reader.recv() if reader.poll(60) else None
            proc.join(60)
            assert proc.exitcode == 0 and got == want

            job = JobSpec(config=dict(nx=16, ny=8, nparticles=256, p=4, seed=1), iterations=3)
            report = Scheduler(workers=2, cache=None, workdir=tmp_path).run([job, job])
            assert report["ok"] and report["counters"]["completed"] == 2
            assert sim.run(1).records  # the parent's team still serves


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
        assert len(shard_threads) == (native.kernels() is not None)  # the NumPy bodies: none
        assert all(t.name.startswith("repro-shard") for t in shard_threads)
        sim.close()
        assert sim.backend is None
        assert set(threading.enumerate()) == before

    def test_context_manager(self):
        with Simulation(_cfg(), workers=2) as sim:
            assert sim.backend is not None
            sim.run(1)
        assert sim.backend is None
