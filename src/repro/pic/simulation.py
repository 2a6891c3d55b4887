"""The experiment driver: :class:`Simulation` builds one run's stack and runs it.

Its config lives in :mod:`repro.pic.config`, its history and result in
:mod:`repro.pic.result`, the run state a resume restores in
:mod:`repro.pic.checkpoint`, and rank-failure recovery in
:mod:`repro.pic.recovery`.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.core.partitioner import ParticlePartitioner
from repro.core.policies import make_policy
from repro.core.redistribution import Redistributor
from repro.machine.faults import FaultPlan
from repro.machine.trace import PhaseTrace
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import CurveBlockDecomposition, MeshDecomposition, balanced_splits
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.pic.checkpoint import capture_run, resume_run
from repro.pic.config import DISTRIBUTIONS, SimulationConfig, config_from_dict, config_to_dict
from repro.pic.parallel import ParallelPIC
from repro.pic.result import IterationRecord, SimulationResult, final_state_summary
from repro.util import require
from repro.util.errors import RankFailure
from repro.util.guards import InvariantGuard

__all__ = [
    "SimulationConfig",
    "IterationRecord",
    "SimulationResult",
    "Simulation",
    "config_to_dict",
    "config_from_dict",
]


class Simulation:
    """Assembles and runs one configured experiment.

    The driver is stateful: :meth:`run` advances the simulation by a
    number of iterations and returns a :class:`SimulationResult` covering
    the *entire* history so far, so a run restored with
    :meth:`from_checkpoint` and continued produces the same result object
    as the uninterrupted run (the exact-resume contract, DESIGN.md §5.2).

    ``workers`` (int or ``"auto"``) runs either kernel's particle passes
    on that many shard threads.  It is deliberately *not*
    part of :class:`SimulationConfig`: worker count is an execution
    detail — results, checkpoints, and telemetry are byte-stable across
    worker counts (DESIGN.md §5.5) — so it never appears in serialized
    configs or checkpoints.  Call :meth:`close` (or use the instance as
    a context manager) to join the threads.
    """

    def __init__(self, config: SimulationConfig, *, workers: int | str = 0) -> None:
        self.config = config
        #: completed iterations (absolute; checkpoints resume from here)
        self.iteration = 0
        #: full per-iteration history (restored on resume)
        self.records: list[IterationRecord] = []
        self.n_redistributions = 0
        self.redistribution_time = 0.0
        self.grid = Grid2D(config.nx, config.ny)
        sampler = DISTRIBUTIONS[config.distribution]
        self.initial_particles = sampler(
            self.grid,
            config.nparticles,
            vth=config.vth,
            density=config.density,
            rng=config.seed,
        )
        self.vm = VirtualMachine(
            config.p, config.model, strict_ops=(config.guards == "strict")
        )
        self.partitioner = ParticlePartitioner(self.grid, config.scheme)
        from repro.parallel_exec import create_backend

        #: shard-thread execution backend (None = in-process kernels); owned
        #: by the Simulation and shared across rank-failure recoveries
        self.backend = create_backend(workers, self.grid)
        self.policy = make_policy(config.policy)
        #: invariant guard (None when ``config.guards == "off"``: the hot
        #: paths then carry only dormant ``is None`` branches)
        self.guard = InvariantGuard(config.guards) if config.guards != "off" else None
        #: installed fault plan (None = fault-free machine)
        self.fault_plan: FaultPlan | None = None
        self.n_recoveries = 0
        self.recovery_time = 0.0
        self._last_checkpoint: Path | None = None
        #: telemetry bundle (None until :meth:`enable_telemetry`); when
        #: off, every hot-path hook is a dormant ``is None`` branch
        self.telemetry = None
        #: host-wall profiler (None until :meth:`enable_profiling`): a fold
        #: of the phase recorder telemetry uses too (DESIGN.md §5.8)
        self.profiler = None
        #: batch identity (``{"batch_id", "job_id", "attempt"}``) stamped
        #: by the job service via :meth:`set_correlation`; ``None`` for
        #: standalone runs, keeping their exports byte-identical
        self.correlation: dict | None = None
        # the measured cost of the setup distribution seeds the dynamic
        # policy's T_redistribution
        self._setup_cost = self._assemble(self.initial_particles, setup=True)
        if self.redistributor is not None and hasattr(self.policy, "record_redistribution"):
            self.policy.record_redistribution(-1, self._setup_cost)
        #: per-iteration phase increments, snapshotted by :meth:`run` after
        #: every iteration into telemetry's ``phase_time``
        self.trace = PhaseTrace(self.vm)

    # ------------------------------------------------------------------
    def _assemble(self, particles: ParticleArray, *, setup: bool) -> float:
        """Build the stack over ``self.vm`` for ``self.config``; return the distribution's cost.

        Decomposition, per-rank assignment of ``particles``, rebalancer
        (adaptive) or redistributor with its from-scratch distribution
        (Lagrangian), stepper, guard, policy binding and observer wiring:
        the one place a run's stack is built, at construction (``setup``)
        and after a rank failure.  At setup the particles are cut in curve
        order and the measured distribution is taken off the clock again,
        so run time starts at the first iteration (as in the paper) — here
        and not in the caller because the modern stepper's constructor
        deposits its initial charge *on* the clock; at recovery they are
        cut in the survivors' rank order and the re-distribution stays on
        the clock.
        """
        cfg, vm = self.config, self.vm
        self.decomp = self._build_decomposition()
        if cfg.partitioning == "grid" or cfg.movement == "eulerian":
            # particles live with the owner of their cell
            cells = self.grid.cell_id_of_positions(particles.x, particles.y)
            owners = self.decomp.owner_of_cells(cells)
            local = [particles.take(np.flatnonzero(owners == r)) for r in range(cfg.p)]
        elif setup:
            local = self.partitioner.initial_partition(particles, cfg.p)
        else:
            splits = balanced_splits(particles.n, cfg.p)
            local = [particles.take(np.arange(splits[r], splits[r + 1])) for r in range(cfg.p)]
        self.rebalancer = None
        if cfg.partitioning == "adaptive":
            from repro.core.adaptive import AdaptiveMeshRebalancer

            self.rebalancer = AdaptiveMeshRebalancer(self.grid, cfg.scheme)
        self.redistributor: Redistributor | None = None
        cost = 0.0
        if cfg.movement == "lagrangian":
            self.redistributor = Redistributor(self.partitioner, nbuckets=cfg.nbuckets)
            result = self.redistributor.initialize(vm, ParticlePool.from_ranks(local))
            local, cost = result.pool, result.cost
            if setup:
                vm.reset()
        self.pic = self._build_stepper(vm, local)
        if self.guard is not None:
            self.pic.guard = self.guard
            if setup:
                self.guard.capture(self.pic.particles)
            else:
                self.guard.after_redistribution(self.pic.particles)
        # the policy may have been rebuilt from checkpoint state, and
        # either way it now advises this machine
        self.policy.bind(vm)
        self._observe()
        return cost

    # ------------------------------------------------------------------
    def _build_stepper(self, vm: VirtualMachine, local: list[ParticleArray] | ParticlePool):
        """The configured PIC stepper over ``local`` on ``vm``.

        Called at construction and again by rank-failure recovery, which
        rebuilds the stepper on the shrunk machine.
        """
        cfg = self.config
        if cfg.kernel == "modern":
            from repro.pic.parallel_yee import ParallelYeePIC

            return ParallelYeePIC(
                vm, self.grid, self.decomp, local, dt=cfg.dt, backend=self.backend
            )
        return ParallelPIC(
            vm,
            self.grid,
            self.decomp,
            local,
            dt=cfg.dt,
            ghost_table=cfg.ghost_table,
            movement=cfg.movement,
            field_solver=cfg.field_solver,
            backend=self.backend,
        )

    def close(self) -> None:
        """Join the backend's shard threads.

        Idempotent; a no-op for in-process runs.
        """
        if self.backend is not None:
            self.backend.close()
            self.backend = self.pic.backend = None

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def enable_telemetry(self):
        """Attach a :class:`~repro.telemetry.RunTelemetry` to this run.

        Switches on the virtual clock columns of the machine's phase
        recorder, and wires the decision sink into the redistribution
        policy and the violation sink into the invariant guard.
        Idempotent; returns the bundle so callers can save its trace /
        metrics exports after :meth:`run`.  Telemetry only observes the
        virtual clocks — ``vm.elapsed()``, ``vm.ops``, and every result
        quantity stay bit-identical to an untelemetered run.
        """
        if self.telemetry is None:
            from repro.telemetry import RunTelemetry

            self.telemetry = RunTelemetry(
                self.config.p,
                config=config_to_dict(self.config),
                correlation=self.correlation,
                tracer=self.vm.tracer,
            )
            self._observe()
        return self.telemetry

    def enable_profiling(self):
        """Attach a :class:`~repro.obs.profile.PhaseProfiler` to this run.

        Switches on the host columns of the machine's phase recorder: a
        host-wall time per phase and per kernel inside it (the shard
        threads' task timings included, drained at :meth:`save_profile`).
        Idempotent; returns the profiler.  Profiling only reads the host
        clock — results, ``vm.elapsed()``, and ``vm.ops`` stay
        bit-identical to an unprofiled run, the same contract as telemetry.
        """
        if self.profiler is None:
            from repro.obs.profile import PhaseProfiler

            self.profiler = PhaseProfiler(self.vm.tracer)
            if self.backend is not None:
                self.backend.drain_profile()  # shard time from here on only
            self._observe()
        return self.profiler

    def save_profile(self, directory) -> list[Path]:
        """Export collapsed-stack ``.folded`` files (one per phase).

        Drains the backend's shard-task timings first; requires
        :meth:`enable_profiling`.
        """
        require(self.profiler is not None, "profiling is not enabled on this run")
        if self.backend is not None:
            self.profiler.merge_worker_samples(self.backend.drain_profile())
        return self.profiler.export_folded(directory)

    def set_correlation(self, correlation: dict | None) -> "Simulation":
        """Stamp (or clear) the run's batch identity.

        ``correlation`` is the job service's
        ``{"batch_id", "job_id", "attempt"}`` dict; it propagates into
        the telemetry header, the trace export, every checkpoint, and
        :meth:`result`'s document, making all artifacts of a batch
        joinable (DESIGN.md §5.8).  Returns ``self`` for chaining.
        """
        self.correlation = dict(correlation) if correlation is not None else None
        if self.telemetry is not None:
            self.telemetry.set_correlation(self.correlation)
        return self

    def _observe(self) -> None:
        """(Re-)attach the run's observers to the current vm / policy / guard.

        The one place that sets the machine's observer hook, ``vm.tracer``:
        the phase recorder telemetry and the profiler share.  Called at
        construction (through :meth:`_assemble`; a no-op, nothing is
        enabled yet), at enable time, and by rank-failure recovery, which
        swaps the machine before it charges recovery and rebuilds the
        policy from checkpoint state (dropping its transient sink).
        """
        tel, prof = self.telemetry, self.profiler
        if tel is not None or prof is not None:
            self.vm.tracer = (prof if tel is None else tel).tracer
        if tel is not None:
            self.policy.decision_sink = tel.record_sar_decision
            if self.guard is not None:
                self.guard.on_violation = tel.record_guard_violation

    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan | None) -> "Simulation":
        """Attach a :class:`~repro.machine.faults.FaultPlan` to the machine.

        With a plan installed, :meth:`run` recovers automatically from
        :class:`~repro.util.errors.RankFailure` (shrink + restore, see
        :func:`repro.pic.recovery.recover`).  Passing ``None`` removes the plan.  Returns
        ``self`` for chaining.
        """
        self.fault_plan = plan
        self.vm.install_faults(plan)
        return self

    # ------------------------------------------------------------------
    def _build_decomposition(self) -> MeshDecomposition:
        cfg = self.config
        if cfg.partitioning in ("independent", "grid", "adaptive"):
            return CurveBlockDecomposition(self.grid, cfg.p, cfg.scheme)
        # particle partitioning: mesh splits follow particle quantiles
        # along the curve, so cells per rank are unbalanced.
        keys = self.partitioner.particle_keys(self.initial_particles)
        order = np.sort(keys)
        quantile_bounds = balanced_splits(order.size, cfg.p)
        bounds = np.empty(cfg.p + 1, dtype=np.int64)
        bounds[0] = 0
        bounds[-1] = self.grid.ncells
        for r in range(1, cfg.p):
            idx = int(quantile_bounds[r])
            bounds[r] = int(order[min(idx, order.size - 1)])
        bounds = np.maximum.accumulate(bounds)
        np.clip(bounds, 0, self.grid.ncells, out=bounds)
        return CurveBlockDecomposition(self.grid, cfg.p, cfg.scheme, bounds=bounds)

    # ------------------------------------------------------------------
    def run(
        self,
        niters: int,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
        walltime: float | None = None,
        on_iteration: Callable[[Simulation], None] | None = None,
    ) -> SimulationResult:
        """Run ``niters`` further iterations under the configured policy.

        On a fresh simulation this is iterations ``0 .. niters-1``; on a
        simulation restored with :meth:`from_checkpoint` the iteration
        numbering (and therefore the policy schedule) continues from the
        checkpoint.  The returned result always covers the full history,
        including restored iterations.

        With ``checkpoint_every=k`` a checkpoint is written to
        ``checkpoint_path`` (atomically overwritten in place) after every
        ``k``-th completed iteration, counted absolutely.

        ``on_iteration(sim)`` is called after every completed iteration
        (replays after a rank-failure recovery included), after its
        checkpoint — the hook for heartbeats and progress, so a driver
        makes one ``run`` call, not one per iteration.

        When a fault plan is installed (:meth:`install_faults`) and a
        rank dies, the :class:`~repro.util.errors.RankFailure` is caught
        here and :func:`~repro.pic.recovery.recover` shrinks the machine
        to the survivors, restores state, and the loop replays/continues
        until the target iteration is reached — the recovery overhead
        stays on the virtual clock.

        ``walltime`` (host seconds, default off) is the wall-clock
        watchdog: when the budget is exhausted the run stops after the
        *current* iteration completes, a final checkpoint is written
        (when checkpointing is configured), a structured ``timeout``
        event lands in the telemetry stream, and
        :class:`~repro.util.errors.JobTimeout` is raised carrying the
        last completed iteration — so a supervisor (or ``repro resume``)
        can pick the run back up from the checkpoint.
        """
        require(niters >= 0, "niters must be >= 0")
        if checkpoint_every is not None:
            require(checkpoint_every >= 1, "checkpoint_every must be >= 1")
            require(
                checkpoint_path is not None,
                "checkpoint_every requires checkpoint_path",
            )
        if walltime is not None:
            require(walltime > 0, "walltime must be > 0 seconds")
        import time as _time

        t_wall0 = _time.monotonic()
        target = self.iteration + niters
        while self.iteration < target:
            vm = self.vm  # rebound after a recovery (the machine shrinks)
            it = self.iteration
            injector = vm.fault_injector
            if injector is not None:
                injector.set_iteration(it)
            tel = self.telemetry
            if tel is not None:
                tel.set_iteration(it)
                tel.begin_iteration(vm, self.pic)
            try:
                t0 = vm.elapsed()
                self.pic.step()
                t_iter = vm.elapsed() - t0
                epoch = vm.stats.snapshot_epoch()
                scatter = epoch.get("scatter")
                max_bytes = scatter.max_bytes if scatter is not None else 0
                max_msgs = scatter.max_msgs if scatter is not None else 0
                self.policy.record_iteration(it, t_iter)
                if self.policy.needs_load:
                    self.policy.record_load(it, self.pic.pool.counts.tolist())
                redistributed = False
                cost = 0.0
                redis_epoch = None
                if (
                    self.redistributor is not None
                    and self.config.movement == "lagrangian"
                    and self.policy.should_redistribute(it)
                ):
                    result = self.redistributor.redistribute(vm, self.pic.pool)
                    self.pic.pool, cost = result.pool, result.cost
                    redistributed, redis_epoch = True, self._redistributed(it, cost)
                elif self.rebalancer is not None and self.policy.should_redistribute(it):
                    cost = self.rebalancer.rebalance(self.pic)
                    self.decomp = self.pic.decomp  # rebalance moved the bounds
                    redistributed, redis_epoch = True, self._redistributed(it, cost)
                self.records.append(
                    IterationRecord(it, t_iter, max_bytes, max_msgs, redistributed, cost)
                )
                phase_row = self.trace.snapshot()
                if tel is not None:
                    tel.end_iteration(
                        vm,
                        self.pic,
                        iteration=it,
                        phase_time=phase_row,
                        comm_epochs=[epoch] + ([redis_epoch] if redis_epoch else []),
                        redistributed=redistributed,
                        redistribution_cost=cost,
                    )
                self.iteration = it + 1
                if checkpoint_every is not None and self.iteration % checkpoint_every == 0:
                    self.checkpoint(checkpoint_path)
                if self.profiler is not None:  # between iterations: no frame is open
                    self.profiler.fold_rows()
            except RankFailure as failure:
                from repro.pic.recovery import recover

                recover(self, failure)
            else:
                if on_iteration is not None:
                    on_iteration(self)
            if walltime is not None and self.iteration < target:
                elapsed = _time.monotonic() - t_wall0
                if elapsed >= walltime:
                    self._on_walltime_expired(
                        walltime, elapsed, checkpoint_path, checkpoint_every
                    )
        return self.result()

    def _redistributed(self, iteration: int, cost: float) -> dict:
        """Guard, totals and policy after a redistribution; returns its comm epoch."""
        if self.guard is not None:
            self.guard.after_redistribution(self.pic.particles)
        self.redistribution_time += cost
        self.n_redistributions += 1
        self.policy.record_redistribution(iteration, cost)
        return self.vm.stats.snapshot_epoch()

    def _on_walltime_expired(
        self,
        walltime: float,
        elapsed: float,
        checkpoint_path: str | Path | None,
        checkpoint_every: int | None,
    ) -> None:
        """Stop a watchdogged run: final checkpoint, telemetry event, raise."""
        from repro.util.errors import JobTimeout

        if checkpoint_every is not None and checkpoint_path is not None:
            # a resume from here replays nothing: the checkpoint is at
            # the exact iteration the timeout interrupted
            self.checkpoint(checkpoint_path)
        if self.telemetry is not None:
            self.telemetry.record_event(
                "timeout",
                t=self.vm.elapsed(),
                iteration=self.iteration,
                walltime=float(walltime),
                elapsed=float(elapsed),
            )
        raise JobTimeout("run", walltime, elapsed, iteration=self.iteration)

    def result(self) -> SimulationResult:
        """The :class:`SimulationResult` of the history run so far."""
        vm = self.vm
        return SimulationResult(
            config=self.config,
            records=list(self.records),
            total_time=vm.elapsed(),
            computation_time=float(vm.compute_time.max()),
            n_redistributions=self.n_redistributions,
            redistribution_time=self.redistribution_time,
            phase_breakdown=vm.phase_breakdown(),
            n_recoveries=self.n_recoveries,
            recovery_time=self.recovery_time,
            final_state=self.final_state_summary(),
            telemetry=self.telemetry.aggregates() if self.telemetry is not None else None,
            correlation=self.correlation,
        )

    def final_state_summary(self) -> dict:
        """Rank-count-independent physics summary of the current state
        (:func:`~repro.pic.result.final_state_summary`)."""
        return final_state_summary(self.pic, self.iteration)

    # ------------------------------------------------------------------
    # exact-resume checkpoint / restart
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path) -> Path:
        """Write a format-v3 exact-resume checkpoint of the full run state
        (:func:`~repro.pic.checkpoint.capture_run`), atomically."""
        written = capture_run(self, path)
        self._last_checkpoint = written  # rank-failure recovery restores from here
        if self.telemetry is not None:
            self.telemetry.record_event(
                "checkpoint",
                t=self.vm.elapsed(),
                iteration=self.iteration,
                path=str(written),
            )
        return written

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        *,
        guards: str | None = None,
        workers: int | str = 0,
    ) -> "Simulation":
        """Rebuild a :class:`Simulation` from a checkpoint, exactly.

        The configuration embedded in the checkpoint reconstructs the
        stack deterministically; every piece of mutable state is then
        overwritten from the archive, so continuing with :meth:`run`
        reproduces the uninterrupted run bit-for-bit.  Any other file
        raises :class:`~repro.util.errors.CheckpointError` naming what is
        wrong.  ``guards`` overrides the checkpointed guard severity;
        ``workers`` enables the shard-thread backend for the resumed run —
        a checkpoint never records a worker count (execution detail),
        so any run can resume with any ``workers`` value and produce
        bit-identical results.
        """
        return resume_run(cls, path, guards=guards, workers=workers)
