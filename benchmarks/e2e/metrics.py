"""The benchmark's metric definitions: the one place names and units live.

``BENCHMARK.json`` at the repository root repeats the names, units,
directions and bounds listed here (a self-test compares the two); the
``moves`` column is the prediction, written down before any measurement
of a change, of which end-to-end metric on which workload a layer metric
should move.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EndToEnd", "Layer", "END_TO_END", "PER_LAYER", "JOB_NAMES", "WORKLOADS"]

#: ``batch_mixed``'s jobs, in submission order.
JOB_NAMES = ("periodic2_hot", "eulerian_es", "modern_yee", "snake_dynamic")

#: Workload name -> why it exists (one line, repeated in BENCHMARK.json).
WORKLOADS = {
    "fig17_dynamic": (
        "Fig 17/20 config (128x64, 32768 particles, p=32, irregular, Hilbert, dynamic), "
        "in-process: the paper's headline case and the plain single-process baseline; "
        "particle kernels dominate"
    ),
    "table2_p128": (
        "Table 2 cell irregular-256x128-n65536-p128, dynamic: rank-count-dominated, dense "
        "per-rank rows, reduce and per-message ghost merge weigh 2-3x more than on fig17_dynamic"
    ),
    "fig17_workers2": (
        "fig17_dynamic's exact config under workers=2: the same kernels sharded over shared "
        "memory, so fork/shm/dispatch cost shows here and is exactly absent elsewhere"
    ),
    "batch_mixed": (
        "closed loop, one client: 4 different jobs through the job service cold then warm; the "
        "only workload where service, checkpoint, telemetry and the alternative steppers work"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str  #: end-to-end metric @ workload this metric should move

    @property
    def layer(self) -> str:
        """The module the metric belongs to (the name's first component)."""
        return self.name.split(".", 1)[0]


#: ``bound`` is what ``BENCHMARK.json`` carries: the share of the parent's
#: median by which a later change may worsen the metric.  The driver refuses a
#: benchmark whose own quartile spread over ten runs exceeds a bound, so each
#: is the largest of the issue's design bound, twice the largest A/A gap and
#: three times the largest quartile spread recorded in ``NOISE.json``, rounded
#: up to a whole percent and cut at the 0.25 the driver allows.
END_TO_END = (
    EndToEnd(
        # design 0.08; spread up to 12.4 %, so the cap (and the largest bound, as it must be)
        "setup_s", "s", "lower", 0.25,
        "cold start: median over 7 fresh child interpreters of spawn -> import repro -> "
        "ready object -> exit",
    ),
    EndToEnd(
        # design 0.05; spread up to 17.1 % (fig17_workers2), so the cap
        "wall_s", "s", "lower", 0.25,
        "median over passes of the timed region's wall",
    ),
    EndToEnd(
        "ns_per_particle_step", "ns", "lower", 0.25,
        "wall_s / (iterations x particles, summed over jobs)",
    ),
    EndToEnd(
        # design 0: exact on one seed, which a run (across passes) and `aa` (across runs)
        # check; the driver draws a seed per run, and across seeds it spreads by 0.54 %
        "vm_s", "virtual_s", "lower", 0.02,
        "virtual execution time (SimulationResult.total_time, summed over jobs); "
        "identical across passes and runs of one seed",
    ),
    EndToEnd(
        # design 0.03; spread up to 2.3 % (batch_mixed)
        "peak_rss_mb", "MiB", "lower", 0.07,
        "RUSAGE_SELF + RUSAGE_CHILDREN max-RSS after the timed passes",
    ),
)

_SETUP = "setup_s @ all"
_KERNEL = "wall_s @ fig17_dynamic, fig17_workers2"
_RANKS = "wall_s, peak_rss_mb @ table2_p128 (< 1/3 of that relative change @ fig17_dynamic)"
_ACCOUNT = "wall_s @ table2_p128, batch_mixed (eulerian_es)"
_REDIS = "wall_s @ batch_mixed (periodic2_hot); unresolved @ fig17_dynamic"
_WORKERS = "wall_s @ fig17_workers2 only; exactly 0 elsewhere"
_BATCH = "wall_s @ batch_mixed only; exactly 0 elsewhere"
_BEHAVIOUR = "vm_s; bit-identical under any host-side optimisation"
_CONTEXT = "none (context for reading the other numbers)"

PER_LAYER = (
    # construction (traced once per pass)
    Layer("indexing.keys_s", "s", "lower", _SETUP),
    Layer("mesh.decomp_build_s", "s", "lower", _SETUP),
    Layer("core.initial_partition_s", "s", "lower", _SETUP),
    Layer("parallel_exec.pool_start_s", "s", "lower", "setup_s @ fig17_workers2"),
    # the four PIC phases
    Layer("pic.scatter_deposit_s", "s", "lower", _KERNEL),
    Layer("pic.scatter_reduce_s", "s", "lower", _RANKS),
    Layer("pic.scatter_self_s", "s", "lower", _RANKS),
    Layer("pic.field_solve_s", "s", "lower", "wall_s @ all"),
    Layer("pic.gather_interp_s", "s", "lower", _KERNEL),
    Layer("pic.push_s", "s", "lower", _KERNEL),
    Layer("pic.gather_push_self_s", "s", "lower", _RANKS),
    Layer("pic.ghost_entries", "count", "lower", _BEHAVIOUR),
    Layer("pic.ghost_unique_frac", "ratio", "lower", _BEHAVIOUR),
    Layer("mesh.halo_exchange_s", "s", "lower", "wall_s @ table2_p128"),
    # the virtual machine
    Layer("machine.vm_account_s", "s", "lower", _ACCOUNT),
    Layer("machine.collectives_s", "s", "lower", "wall_s @ batch_mixed (eulerian_es)"),
    Layer("machine.trace_snapshot_s", "s", "lower", _ACCOUNT),
    Layer("machine.stats_epoch_s", "s", "lower", _ACCOUNT),
    Layer("machine.ops_total", "count", "lower", _BEHAVIOUR),
    Layer("machine.msgs_total", "count", "lower", _BEHAVIOUR),
    Layer("machine.bytes_total", "B", "lower", _BEHAVIOUR),
    # redistribution
    Layer("core.redistribute_s", "s", "lower", _REDIS),
    Layer("core.policy_s", "s", "lower", _REDIS),
    Layer("core.redistributions", "count", "lower", _BEHAVIOUR),
    Layer("core.imbalance_mean", "ratio", "lower", _BEHAVIOUR),
    # the multicore backend, as the parent sees it (incl. channel wait)
    Layer("parallel_exec.scatter_s", "s", "lower", _WORKERS),
    Layer("parallel_exec.gather_push_s", "s", "lower", _WORKERS),
    Layer("parallel_exec.classify_s", "s", "lower", _WORKERS),
    Layer("parallel_exec.speedup_w2", "ratio", "higher", _WORKERS),
    # the driver: everything not attributed above
    Layer("driver.self_s", "s", "lower", _ACCOUNT),
    Layer("driver.self_frac", "ratio", "lower", _ACCOUNT),
    Layer("driver.result_s", "s", "lower", _BATCH),
    Layer("driver.iter_ms_p50", "ms", "lower", "wall_s @ all"),
    Layer("driver.iter_ms_p90", "ms", "lower", "wall_s @ all"),
    Layer("driver.iter_samples", "count", "higher", _CONTEXT),
    # the job service and what only it switches on
    Layer("service.cold_s", "s", "lower", _BATCH),
    Layer("service.warm_s", "s", "lower", _BATCH),
    Layer("service.first_start_s", "s", "lower", _BATCH),
    *(Layer(f"service.job.{job}.wall_s", "s", "lower", _BATCH) for job in JOB_NAMES),
    Layer("service.bare_job_s", "s", "lower", _BATCH),
    Layer("service.overhead_frac", "ratio", "lower", _BATCH),
    Layer("service.heartbeat_s", "s", "lower", _BATCH),
    Layer("service.worker_self_s", "s", "lower", _BATCH),
    Layer("service.cache_hits", "count", "higher", _BATCH),
    Layer("service.retries", "count", "lower", _BATCH),
    Layer("service.jobs_failed", "count", "lower", _BATCH),
    Layer("pic.checkpoint_s", "s", "lower", _BATCH),
    Layer("pic.checkpoint_bytes", "B", "lower", _BATCH),
    Layer("telemetry.iter_hook_s", "s", "lower", _BATCH),
    Layer("telemetry.export_s", "s", "lower", _BATCH),
    Layer("telemetry.bytes_written", "B", "lower", _BATCH),
    # the measurement itself
    Layer("trace.overhead_frac", "ratio", "lower", _CONTEXT),
    Layer("host.loadavg_start", "ratio", "lower", _CONTEXT),
    Layer("host.loadavg_end", "ratio", "lower", _CONTEXT),
)
