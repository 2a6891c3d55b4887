"""High-level simulation driver: configuration, policies, history.

:class:`Simulation` assembles the whole stack for one experiment — the
workload (paper's uniform / irregular distributions), the machine, the
mesh decomposition, the particle distribution, the parallel PIC stepper,
and a redistribution policy — then runs it while recording the
per-iteration series the paper plots (execution time, scatter-phase max
bytes and max messages) and the end-of-run totals its tables report.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from repro.core.partitioner import ParticlePartitioner
from repro.core.policies import (
    RedistributionPolicy,
    make_policy,
    policy_from_state,
    policy_spec,
)
from repro.core.redistribution import Redistributor
from repro.indexing import available_schemes
from repro.machine.faults import FaultInjector, FaultPlan
from repro.machine.model import MachineModel
from repro.machine.trace import PhaseTrace
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import CurveBlockDecomposition, MeshDecomposition, balanced_splits
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.init import gaussian_blob, ring_distribution, two_stream, uniform_plasma
from repro.pic.checkpoint import (
    RECORD_DTYPE,
    CheckpointData,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.pic.parallel import ParallelPIC
from repro.util import require
from repro.util.errors import RankFailure
from repro.util.guards import GUARD_MODES, InvariantGuard

__all__ = [
    "SimulationConfig",
    "IterationRecord",
    "SimulationResult",
    "Simulation",
    "config_to_dict",
    "config_from_dict",
]

_DISTRIBUTIONS = {
    "uniform": uniform_plasma,
    "irregular": gaussian_blob,
    "two_stream": two_stream,
    "ring": ring_distribution,
}


@dataclass
class SimulationConfig:
    """Everything that defines one experiment run.

    Parameters mirror the paper's sweeps: mesh size, particle count,
    spatial distribution, indexing scheme, processors, and the
    redistribution policy.
    """

    nx: int = 64
    ny: int = 32
    nparticles: int = 8192
    p: int = 8
    distribution: str = "uniform"  #: uniform | irregular | two_stream | ring
    scheme: str = "hilbert"  #: indexing scheme name
    policy: str | RedistributionPolicy = "static"  #: any registered spec, e.g. static | periodic:<k> | dynamic | sar-ewma | costmodel:horizon=<n> | imbalance | planner
    movement: str = "lagrangian"  #: lagrangian | eulerian
    partitioning: str = "independent"  #: independent | grid | particle | adaptive
    ghost_table: str = "hash"  #: hash | direct
    field_solver: str = "maxwell"  #: maxwell | electrostatic (era kernel only)
    kernel: str = "era"  #: era (CIC + collocated FDTD, the paper) | modern (Yee + zigzag)
    model: MachineModel = field(default_factory=MachineModel.cm5)
    dt: float | None = None
    seed: int = 0
    nbuckets: int = 16
    vth: float = 0.05  #: thermal momentum spread of the sampler
    density: float = 0.01  #: mean charge density (sets the plasma frequency)
    guards: str = "off"  #: invariant-guard severity: off | warn | strict

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nparticles", "p", "seed", "nbuckets"):
            value = getattr(self, name)
            require(
                isinstance(value, numbers.Integral) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
        require(self.nx >= 2 and self.ny >= 2, f"nx and ny must be >= 2, got {self.nx}x{self.ny}")
        require(self.p >= 1, f"p must be >= 1, got {self.p}")

        def finite(name: str) -> float:
            value = getattr(self, name)
            require(
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value),
                f"{name} must be a finite number, got {value!r}",
            )
            return value

        require(finite("vth") >= 0, f"vth must be >= 0, got {self.vth!r}")
        require(finite("density") > 0, f"density must be > 0, got {self.density!r}")
        require(self.dt is None or finite("dt") > 0, f"dt must be > 0, got {self.dt!r}")
        require(
            isinstance(self.policy, (str, RedistributionPolicy)),
            f"policy must be a spec string or a RedistributionPolicy, got {self.policy!r}",
        )
        require(
            self.guards in GUARD_MODES,
            f"guards must be one of {GUARD_MODES}, got {self.guards!r}",
        )
        require(self.distribution in _DISTRIBUTIONS, f"unknown distribution {self.distribution!r}")
        require(
            self.partitioning in ("independent", "grid", "particle", "adaptive"),
            f"unknown partitioning {self.partitioning!r}",
        )
        require(self.movement in ("lagrangian", "eulerian"), f"unknown movement {self.movement!r}")
        schemes = available_schemes()
        require(
            self.scheme in schemes,
            f"unknown scheme {self.scheme!r}; available: {', '.join(schemes)}",
        )
        require(
            self.ghost_table in ("hash", "direct"),
            f"unknown ghost_table {self.ghost_table!r}; expected 'hash' or 'direct'",
        )
        require(
            self.field_solver in ("maxwell", "electrostatic"),
            f"unknown field_solver {self.field_solver!r}; expected 'maxwell' or 'electrostatic'",
        )
        require(self.nbuckets >= 1, f"nbuckets must be >= 1, got {self.nbuckets!r}")
        if self.partitioning == "adaptive":
            require(
                self.movement == "eulerian",
                "adaptive partitioning rebalances cell ownership and requires eulerian movement",
            )
        require(self.kernel in ("era", "modern"), f"unknown kernel {self.kernel!r}")
        if self.kernel == "modern":
            require(
                self.movement == "lagrangian" and self.partitioning == "independent",
                "the modern kernel supports lagrangian movement with independent partitioning",
            )
            require(
                self.field_solver == "maxwell",
                "the modern kernel has its own (Yee) field solve",
            )
        require(self.nparticles >= self.p, "need at least one particle per rank")
        if isinstance(self.policy, str):
            # Validate the spec at config time (the registry raises on
            # unknown names/parameters), so a typo'd --policy fails here
            # rather than deep inside Simulation construction.
            make_policy(self.policy)


def config_to_dict(cfg: SimulationConfig, *, full_model: bool = False) -> dict:
    """JSON-serializable form of a :class:`SimulationConfig`.

    Every field round-trips through :func:`config_from_dict`: the policy
    is rendered as its canonical spec string and the machine model as its
    preset name (or, with ``full_model=True``, as the full constants dict
    checkpoints embed so custom models survive too).
    """
    out = {}
    for f in dataclass_fields(SimulationConfig):
        value = getattr(cfg, f.name)
        if f.name == "policy":
            value = policy_spec(value)
        elif f.name == "model":
            if full_model:
                value = value.to_dict()
            else:
                # Preset name when it resolves back to this exact model;
                # full constants dict otherwise (custom models must still
                # replay via --config).
                try:
                    is_preset = MachineModel.by_name(value.name) == value
                except ValueError:
                    is_preset = False
                value = value.name if is_preset else value.to_dict()
        out[f.name] = value
    return out


def config_from_dict(data: dict) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from :func:`config_to_dict` output.

    ``model`` may be a preset name string or a full constants dict.
    Unknown keys and unresolvable models raise ``ValueError`` naming
    them.  Configs written before the per-rank loops became a test
    oracle carry an ``"engine"`` key; its two historical values selected
    bit-identical paths, so they are accepted and dropped (a checkpoint
    of either resumes to the same bits).
    """
    data = dict(data)
    if data.get("engine") in ("flat", "looped"):
        del data["engine"]
    valid = {f.name for f in dataclass_fields(SimulationConfig)}
    unknown = set(data) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    model = data.get("model")
    if model is not None and not isinstance(model, MachineModel):
        try:
            if isinstance(model, str):
                data["model"] = MachineModel.by_name(model)
            elif isinstance(model, dict):
                data["model"] = MachineModel.from_dict(model)
            else:
                raise ValueError(f"model must be a name or a dict, got {model!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad machine model: {exc}") from exc
    return SimulationConfig(**data)


@dataclass
class IterationRecord:
    """Per-iteration observables (the series of Figures 17–19)."""

    iteration: int
    time: float  #: virtual seconds of this iteration (excl. redistribution)
    scatter_max_bytes: int  #: max data sent/recv by any rank in scatter
    scatter_max_msgs: int  #: max messages sent/recv by any rank in scatter
    redistributed: bool  #: whether a redistribution followed this iteration
    redistribution_cost: float  #: virtual seconds of that redistribution


@dataclass
class SimulationResult:
    """End-of-run summary plus the per-iteration history."""

    config: SimulationConfig
    records: list[IterationRecord]
    total_time: float  #: virtual execution time incl. redistributions
    computation_time: float  #: max-over-ranks pure compute time
    n_redistributions: int
    redistribution_time: float  #: total virtual seconds spent redistributing
    phase_breakdown: dict[str, float]  #: per-phase max-over-ranks time
    n_recoveries: int = 0  #: rank failures recovered from
    recovery_time: float = 0.0  #: virtual seconds spent detecting + recovering
    final_state: dict | None = None  #: physics summary (Simulation.final_state_summary)
    trace: PhaseTrace | None = None  #: per-iteration phase profile (always recorded)
    telemetry: dict | None = None  #: final metric aggregates (None = telemetry off)
    degraded: dict | None = None  #: multicore-fallback marker (None = no fallback)
    correlation: dict | None = None  #: batch identity stamp (None = standalone run)

    @property
    def overhead(self) -> float:
        """Execution time minus computation time (paper Figs 21–22)."""
        return self.total_time - self.computation_time

    @property
    def iteration_times(self) -> np.ndarray:
        """Per-iteration execution-time series (paper Fig 17)."""
        return np.array([r.time for r in self.records])

    @property
    def scatter_max_bytes(self) -> np.ndarray:
        """Per-iteration scatter max-bytes series (paper Fig 18)."""
        return np.array([r.scatter_max_bytes for r in self.records], dtype=np.int64)

    @property
    def scatter_max_msgs(self) -> np.ndarray:
        """Per-iteration scatter max-messages series (paper Fig 19)."""
        return np.array([r.scatter_max_msgs for r in self.records], dtype=np.int64)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable summary plus per-iteration series.

        The ``config`` block is the complete :class:`SimulationConfig`
        (via :func:`config_to_dict`), so a saved run's config feeds back
        through ``repro run --config`` to an identical run.

        With telemetry enabled a ``telemetry`` block of final metric
        aggregates is appended; with telemetry off the output is
        byte-identical to a pre-telemetry run (the zero-cost contract).
        """
        out = {
            "config": config_to_dict(self.config),
            "totals": {
                "iterations": len(self.records),
                "total_time": self.total_time,
                "computation_time": self.computation_time,
                "overhead": self.overhead,
                "n_redistributions": self.n_redistributions,
                "redistribution_time": self.redistribution_time,
                "n_recoveries": self.n_recoveries,
                "recovery_time": self.recovery_time,
            },
            "final_state": self.final_state,
            "phase_breakdown": dict(self.phase_breakdown),
            "series": {
                "iteration_time": self.iteration_times.tolist(),
                "scatter_max_bytes": self.scatter_max_bytes.tolist(),
                "scatter_max_msgs": self.scatter_max_msgs.tolist(),
                "redistributed": [r.redistributed for r in self.records],
            },
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.degraded is not None:
            # only present on fallback runs, so untouched configurations
            # keep byte-identical output (zero-cost contract)
            out["degraded"] = self.degraded
        if self.correlation is not None:
            # present only on scheduler-stamped runs (same optional-key
            # rule as above): the batch_id/job_id/attempt identity that
            # joins this document with the batch's service stream
            out["correlation"] = dict(self.correlation)
        return out

    def save_json(self, path) -> None:
        """Atomically write :meth:`to_dict` to ``path`` as JSON."""
        from repro.util.atomic_io import atomic_write_json

        atomic_write_json(path, self.to_dict())


class Simulation:
    """Assembles and runs one configured experiment.

    The driver is stateful: :meth:`run` advances the simulation by a
    number of iterations and returns a :class:`SimulationResult` covering
    the *entire* history so far, so a run restored with
    :meth:`from_checkpoint` and continued produces the same result object
    as the uninterrupted run (the exact-resume contract, DESIGN.md §5.2).

    ``workers`` (int or ``"auto"``) runs the era kernel's hot loops on
    that many shard threads.  It is deliberately *not*
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
        sampler = _DISTRIBUTIONS[config.distribution]
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
        #: shard-thread execution backend (None = in-process kernels); owned
        #: by the Simulation and shared across rank-failure recoveries
        self.backend = None
        #: degraded-mode marker: ``None`` for a true run of the requested
        #: configuration; a ``{"requested_workers", "reason"}`` dict when
        #: ``workers`` was requested for a kernel the backend does not
        #: serve and the run is in-process (results identical, wall-clock
        #: not) — surfaced in ``SimulationResult.to_dict()`` and the
        #: telemetry header so batch reports can tell the two apart.
        self.degraded: dict | None = None
        from repro.parallel_exec import create_backend, resolve_workers

        requested = resolve_workers(workers)
        if requested > 1:
            if config.kernel == "era":
                self.backend = create_backend(requested, self.grid)
            else:
                import warnings

                reason = (
                    f"the multicore backend applies only to kernel='era' "
                    f"(got kernel={config.kernel!r})"
                )
                self.degraded = {"requested_workers": requested, "reason": reason}
                warnings.warn(
                    f"workers={workers!r} ignored: {reason}",
                    RuntimeWarning,
                    stacklevel=2,
                )
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
        #: host-wall profiler (None until :meth:`enable_profiling`); the
        #: same dormant-hook contract as telemetry (DESIGN.md §5.8)
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
        #: per-iteration phase profile, snapshotted by :meth:`run` after
        #: every iteration and exposed on :class:`SimulationResult`
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
                vm.clocks[:] = 0.0
                vm.compute_time[:] = 0.0
                vm.comm_time[:] = 0.0
                vm.phase_time.clear()
                vm.stats.reset()
                vm.ops.reset()
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
        self._wire_telemetry()
        # after rank-failure recovery the machine is a new one
        self.vm.profiler = self.profiler
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
                vm, self.grid, self.decomp, local, dt=cfg.dt, ghost_table=cfg.ghost_table
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

        Wires the span tracer into the machine's phase contexts, the
        decision sink into the redistribution policy, and the violation
        sink into the invariant guard.  Idempotent; returns the bundle
        so callers can save its trace / metrics exports after
        :meth:`run`.  Telemetry only observes the virtual clocks —
        ``vm.elapsed()``, ``vm.ops``, and every result quantity stay
        bit-identical to an untelemetered run.
        """
        if self.telemetry is None:
            from repro.telemetry import RunTelemetry

            self.telemetry = RunTelemetry(
                self.config.p,
                config=config_to_dict(self.config),
                degraded=self.degraded,
                correlation=self.correlation,
            )
            self._wire_telemetry()
        return self.telemetry

    def enable_profiling(self):
        """Attach a :class:`~repro.obs.profile.PhaseProfiler` to this run.

        The virtual machine opens a host-wall section per phase and one
        per kernel inside it (the shard threads' task timings included,
        drained at :meth:`save_profile`).  Idempotent;
        returns the profiler.  Profiling only reads the host clock —
        results, ``vm.elapsed()``, and ``vm.ops`` stay bit-identical to
        an unprofiled run, the same contract as telemetry.
        """
        if self.profiler is None:
            from repro.obs.profile import PhaseProfiler

            self.profiler = self.vm.profiler = PhaseProfiler()
            if self.backend is not None:
                self.backend.drain_profile()  # shard time from here on only
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

    def _wire_telemetry(self) -> None:
        """(Re-)attach telemetry sinks to the current vm / policy / guard.

        Called at enable time and by :meth:`_assemble`: at construction
        (a no-op, nothing is enabled yet) and after rank-failure recovery,
        which swaps the machine and rebuilds the policy from checkpoint
        state (dropping its transient sink).
        """
        tel = self.telemetry
        if tel is None:
            return
        self.vm.tracer = tel.tracer
        self.policy.decision_sink = tel.record_sar_decision
        if self.guard is not None:
            self.guard.on_violation = tel.record_guard_violation

    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan | None) -> "Simulation":
        """Attach a :class:`~repro.machine.faults.FaultPlan` to the machine.

        With a plan installed, :meth:`run` recovers automatically from
        :class:`~repro.util.errors.RankFailure` (shrink + restore, see
        :meth:`_recover`).  Passing ``None`` removes the plan.  Returns
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
        here and :meth:`_recover` shrinks the machine to the survivors,
        restores state, and the loop replays/continues until the target
        iteration is reached — the recovery overhead stays on the virtual
        clock.

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
            except RankFailure as failure:
                self._recover(failure)
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

    # ------------------------------------------------------------------
    # rank-failure recovery
    # ------------------------------------------------------------------
    def _recover(self, failure: RankFailure) -> None:
        """Shrink the machine to the survivors and restore run state.

        Two paths, both leaving the run able to continue from
        :meth:`run`'s loop:

        * **checkpoint restore** — when :meth:`checkpoint` wrote a file
          this run (or the run came from :meth:`from_checkpoint`), the
          full state at iteration ``k`` is reloaded, repartitioned onto
          the ``p - 1`` survivors, and iterations ``k ..`` are replayed.
          Physics is exact: the final state matches the fault-free run
          (the atol=1e-12 contract of DESIGN.md §5.3).
        * **live salvage** — with no checkpoint, the dead rank's
          particles are recovered from the live pool state and
          redistributed over the survivors; the current iteration
          restarts.  Conservation invariants hold, but the state is the
          mid-step one, so only the invariants — not bit-exactness — are
          guaranteed.

        The new machine's clocks start at the failed machine's elapsed
        time (which already includes the detection timeout), so recovery
        overhead is visible in ``vm.elapsed()`` and, via the
        ``"recovery"`` / ``"redistribution"`` phase labels, in the phase
        breakdown.
        """
        plan = self.fault_plan
        if plan is None:  # no plan installed: not recoverable here
            raise failure
        old_vm = self.vm
        dead = failure.rank
        p_new = old_vm.p - 1
        if p_new < 1:
            raise failure
        t_fail = old_vm.elapsed()  # includes the charged detection timeout

        # -- shrink the machine, carrying the accumulated time forward --
        cfg = replace(self.config, p=p_new)
        vm = VirtualMachine(p_new, cfg.model, strict_ops=(cfg.guards == "strict"))
        vm.clocks[:] = t_fail
        vm.compute_time[:] = float(old_vm.compute_time.max())
        vm.comm_time[:] = float(old_vm.comm_time.max())
        for name, t in old_vm.phase_time.items():
            vm.phase_time[name] = np.full(p_new, float(t.max()))
        vm.ops.load_dict(old_vm.ops.as_dict())
        survivor_plan = plan.survivor_plan(dead)
        vm.install_faults(survivor_plan)
        injector = vm.fault_injector
        if injector is not None:
            injector.set_iteration(self.iteration)
        tel = self.telemetry
        if tel is not None:
            # attach the tracer before recovery charges land so the
            # "recovery" phase shows up as spans on the shrunk machine
            vm.tracer = tel.tracer
            tel.set_iteration(self.iteration)
            tel.record_event(
                "rank_failure", t=t_fail, iteration=self.iteration, rank=dead
            )
        self.config = cfg
        self.vm = vm
        self.fault_plan = survivor_plan
        # the shrunk machine carries the old phase maxima forward, so the
        # phase trace stays continuous across the swap (no stale machine,
        # no double counting)
        self.trace.rebind(vm)

        # -- recover the physical + control state --------------------------
        data = None
        if self._last_checkpoint is not None:
            try:
                data = load_checkpoint(self._last_checkpoint)
            except (FileNotFoundError, CheckpointError):
                data = None
        if data is not None and data.run_state is not None:
            recovery_source = "checkpoint"
            all_parts = data.all_particles()
            fields = data.fields
            restart_iteration = data.iteration
            self._restore_run_state(data)
            # survivors re-read the checkpoint from stable storage: one
            # broadcast of the full state, charged under "recovery"
            nbytes = int(all_parts.block.nbytes) + sum(
                getattr(fields, n).nbytes
                for n in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
            )
            with vm.phase("recovery"):
                vm.charge_comm_seconds(vm.model.collective_cost(p_new, nbytes))
        else:
            # live salvage: the pool state (including the dead rank's
            # partition) is still addressable; survivors agree on the
            # salvage in one small coordination round and restart the
            # interrupted iteration.
            recovery_source = "salvage"
            all_parts = ParticleArray.concat(self.pic.particles)
            fields = self.pic.fields
            restart_iteration = self.iteration
            with vm.phase("recovery"):
                vm.charge_comm_seconds(vm.model.collective_cost(p_new, 8))

        # -- rebuild the stack on the survivors (re-distribution on the clock) --
        self._assemble(all_parts, setup=False)
        self.pic.fields = fields
        self.pic.iteration = restart_iteration
        self.iteration = restart_iteration
        vm.stats.snapshot_epoch()  # keep recovery comm out of the scatter series
        self.n_recoveries += 1
        self.recovery_time += (vm.elapsed() - t_fail) + plan.detect_timeout
        if tel is not None:
            tel.on_shrink(p_new, dead, restart_iteration, t=vm.elapsed())
            tel.record_event(
                "recovery",
                t=vm.elapsed(),
                iteration=restart_iteration,
                source=recovery_source,
                dead_rank=dead,
                p=p_new,
            )

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
            trace=self.trace,
            telemetry=self.telemetry.aggregates() if self.telemetry is not None else None,
            degraded=self.degraded,
            correlation=self.correlation,
        )

    def final_state_summary(self) -> dict:
        """Rank-count-independent physics summary of the current state.

        Every particle reduction sums in a deterministic order (sorted by
        persistent particle id), so the summary of a run that shrank from
        ``p`` to ``p - 1`` ranks is comparable at tight tolerance to the
        fault-free run's — the atol=1e-12 recovery contract of
        DESIGN.md §5.3 is stated on exactly these numbers.
        """
        parts = ParticleArray.concat(self.pic.particles)
        order = np.argsort(parts.ids, kind="stable")
        x, y, ux, uy, uz, q = (float(np.sum(row[order])) for row in parts.block[:6])
        f = self.pic.fields
        return {
            "iteration": int(self.iteration),
            "n_particles": int(parts.n),
            "total_charge": q,
            "x_sum": x,
            "y_sum": y,
            "ux_sum": ux,
            "uy_sum": uy,
            "uz_sum": uz,
            "rho_sum": float(np.sum(f.rho)),
            "e_energy": float(np.sum(f.ex**2 + f.ey**2 + f.ez**2)),
            "b_energy": float(np.sum(f.bx**2 + f.by**2 + f.bz**2)),
        }

    # ------------------------------------------------------------------
    # exact-resume checkpoint / restart
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path) -> Path:
        """Write a format-v3 exact-resume checkpoint of the full run state.

        Serializes the physical state (particles pooled in rank order,
        fields, grid), the virtual machine (clocks, compute/comm splits,
        per-phase times and comm stats, op counters), the policy
        internals, the current decomposition bounds, the redistributor's
        build-time sort keys, and the per-iteration record and phase-trace
        history as arrays.  The write is atomic (temp file +
        ``os.replace``): a crash mid-write never leaves a file
        :func:`~repro.pic.checkpoint.load_checkpoint` accepts.
        """
        run_state = {
            "config": config_to_dict(self.config, full_model=True),
            "vm": self.vm.state_dict(),
            "policy": self.policy.state_dict(),
            "n_redistributions": self.n_redistributions,
            "redistribution_time": self.redistribution_time,
            "n_recoveries": self.n_recoveries,
            "recovery_time": self.recovery_time,
            "setup_cost": self._setup_cost,
            # the *live* decomposition: adaptive rebalancing swaps it at
            # runtime (pic.decomp), which Simulation.decomp tracks
            "decomp_bounds": self.pic.decomp.curve_bounds.tolist(),
        }
        if self.correlation is not None:
            # batch identity rides along (optional key: standalone
            # checkpoints stay byte-identical), so a checkpoint is
            # joinable with its batch's service stream
            run_state["correlation"] = dict(self.correlation)
        written = save_checkpoint(
            path,
            self.grid,
            self.pic.fields,
            self.pic.particles,
            self.iteration,
            run_state=run_state,
            sort_keys=(
                self.redistributor.export_keys() if self.redistributor is not None else None
            ),
            records=list(map(attrgetter(*RECORD_DTYPE.names), self.records)),
            # per-iteration phase-profile rows: telemetry survives resume
            # (a resumed run's PhaseTrace covers the full history)
            trace_rows=self.trace.rows,
        )
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
        """Rebuild a :class:`Simulation` from a v2 or v3 checkpoint, exactly.

        The configuration embedded in the checkpoint reconstructs the
        stack deterministically; every piece of mutable state is then
        overwritten from the archive, so continuing with :meth:`run`
        reproduces the uninterrupted run bit-for-bit.

        ``guards`` overrides the checkpointed guard severity; with
        ``guards="strict"`` a legacy format-v1 file is refused with
        :class:`CheckpointError` instead of loading degraded.

        ``workers`` enables the shard-thread backend for the resumed run —
        a checkpoint never records a worker count (execution detail),
        so any run can resume with any ``workers`` value and produce
        bit-identical results.
        """
        if guards is not None:
            require(
                guards in GUARD_MODES,
                f"guards must be one of {GUARD_MODES}, got {guards!r}",
            )
        data = load_checkpoint(path, strict=(guards == "strict"))
        if data.run_state is None:
            raise CheckpointError(
                f"{path} is a format-v1 checkpoint (particles/fields only) and "
                "cannot seed an exact resume; re-save the run with "
                "Simulation.checkpoint to get a v3 file"
            )
        cfg = config_from_dict(data.run_state["config"])
        if guards is not None and guards != cfg.guards:
            cfg = replace(cfg, guards=guards)
        sim = cls(cfg, workers=workers)
        sim._restore(data)
        sim._last_checkpoint = Path(path)
        return sim

    def _restore_run_state(self, data: CheckpointData) -> None:
        """Policy, history, redistribution totals and setup cost from a checkpoint."""
        rs = data.run_state
        self.policy = policy_from_state(rs["policy"])
        self.records = [IterationRecord(*row) for row in data.records]
        self.n_redistributions = int(rs["n_redistributions"])
        self.redistribution_time = float(rs["redistribution_time"])
        self._setup_cost = float(rs["setup_cost"])

    def _restore(self, data: CheckpointData) -> None:
        cfg = self.config
        rs = data.run_state
        if (data.grid.nx, data.grid.ny) != (self.grid.nx, self.grid.ny):
            raise CheckpointError(
                f"checkpoint grid {data.grid.nx}x{data.grid.ny} does not match "
                f"config grid {self.grid.nx}x{self.grid.ny}"
            )
        if len(data.particles) != cfg.p:
            raise CheckpointError(
                f"checkpoint has {len(data.particles)} particle sets, config p={cfg.p}"
            )
        bounds = np.asarray(rs["decomp_bounds"], dtype=np.int64)
        if not np.array_equal(bounds, self.decomp.curve_bounds):
            # Adaptive rebalancing moved the block boundaries at runtime.
            decomp = CurveBlockDecomposition(self.grid, cfg.p, cfg.scheme, bounds=bounds)
            self.decomp = decomp
            self.pic.set_decomposition(decomp)
        self.pic.pool = data.pool
        self.pic.fields = data.fields
        self.pic.iteration = data.iteration
        self.vm.load_state(rs["vm"])
        # Rebuild the phase trace on the restored machine: the fresh
        # baseline is the restored breakdown (pre-checkpoint time belongs
        # to the rows we restore, not to the next snapshot), and the
        # restored rows make a resumed run's trace cover the full history.
        # Checkpoints written before telemetry carry no rows.
        self.trace = PhaseTrace(self.vm)
        self.trace.rows = data.trace_rows
        self._restore_run_state(data)
        self.policy.bind(self.vm)
        if self.redistributor is not None:
            if data.sort_keys is None:
                raise CheckpointError(
                    "checkpoint carries no redistribution sort keys but the "
                    "configured run (lagrangian movement) needs them"
                )
            self.redistributor.restore_keys(data.sort_keys, data.pool)
        self.iteration = data.iteration
        # keys absent from checkpoints written before fault tolerance
        self.n_recoveries = int(rs.get("n_recoveries", 0))
        self.recovery_time = float(rs.get("recovery_time", 0.0))
        # batch identity (absent from standalone / pre-observability
        # checkpoints); the job service re-stamps the current attempt
        self.correlation = (
            dict(rs["correlation"]) if rs.get("correlation") is not None else None
        )
