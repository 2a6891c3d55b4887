"""The traced run: per-layer metrics from spans wrapped around public callables.

Nothing under ``src/`` is edited for this: :func:`patch_modules` rebinds
the kernel names ``repro.pic.parallel`` imported and the constructors
``repro.pic.simulation`` calls, :func:`instrument_sim` shadows methods of
one live ``Simulation`` and the objects it owns, and everything is put
back when the pass ends.  A layer's ``*_s`` metric is the *self* time of
its spans, so the layers of one pass add up to the pass's root span and
``driver.self_s`` is the explicit unattributed row.

``batch_mixed`` cannot be traced through the scheduler (spans do not
cross the fork), so the trace times ``Scheduler.run`` from outside and
then replays each job in this process through
``repro.service.worker.worker_main`` with a recording stand-in for the
pipe.
"""

from __future__ import annotations

import importlib
import os
import shutil
import statistics
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from time import perf_counter

from benchmarks.e2e import protocol
from benchmarks.e2e.metrics import PER_LAYER
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.workloads import (
    Checks,
    PassResult,
    Plan,
    expected_invariants,
    generate,
    job_specs,
    make_schedulers,
    run_pass,
    scratch_dir,
    sim_pass,
)

__all__ = ["measure_traced", "patch_modules", "instrument_sim", "layer_values", "WARM_REPLAYS"]

#: warm re-submissions timed for ``service.warm_s``
WARM_REPLAYS = {"full": 20, "tiny": 2}

#: (module, name it imported or defines, span) — rebound for a traced pass
_MODULE_SPANS = (
    ("repro.pic.parallel", "scatter_segment", "pic.scatter_deposit"),
    ("repro.pic.parallel", "reduce_rank_rows", "pic.scatter_reduce"),
    ("repro.pic.parallel", "gather_from_node_values", "pic.gather_interp"),
    ("repro.pic.parallel", "boris_push", "pic.push"),
    ("repro.pic.parallel", "exchange_by_destination_pooled", "machine.collectives"),
    # the modern kernel's stepper imports its own copies of the kernels
    ("repro.pic.parallel_yee", "deposition_entries", "pic.scatter_deposit"),
    ("repro.pic.parallel_yee", "deposit_current_zigzag", "pic.scatter_deposit"),
    ("repro.pic.parallel_yee", "gather_from_node_values", "pic.gather_interp"),
    ("repro.pic.parallel_yee", "boris_push", "pic.push"),
    # construction
    ("repro.pic.simulation", "ParticlePartitioner", "indexing.keys"),
    ("repro.pic.simulation", "CurveBlockDecomposition", "mesh.decomp_build"),
    ("repro.parallel_exec", "create_backend", "parallel_exec.pool_start"),
)
#: (module, class, method, span) — methods that run inside ``Simulation.__init__``
_CLASS_SPANS = (
    ("repro.core.partitioner", "ParticlePartitioner", "initial_partition", "core.initial_partition"),
    ("repro.core.redistribution", "Redistributor", "initialize", "core.initial_partition"),
)
_VM_ACCOUNT = (
    "charge_ops",
    "charge_compute_seconds",
    "charge_comm_seconds",
    "alltoallv",
    "allgather",
    "allreduce",
    "allreduce_scalar",
    "barrier",
    "elapsed",
)
_POLICY = ("record_iteration", "record_load", "should_redistribute", "record_redistribution")

#: metric -> spans whose self time it sums
SPAN_METRICS = {
    "indexing.keys_s": ("indexing.keys",),
    "mesh.decomp_build_s": ("mesh.decomp_build",),
    "core.initial_partition_s": ("core.initial_partition",),
    "pic.scatter_deposit_s": ("pic.scatter_deposit",),
    "pic.scatter_reduce_s": ("pic.scatter_reduce",),
    "pic.scatter_self_s": ("pic.scatter",),
    "pic.field_solve_s": ("pic.field_solve",),
    "pic.gather_interp_s": ("pic.gather_interp",),
    "pic.push_s": ("pic.push",),
    "pic.gather_push_self_s": ("pic.gather_push",),
    "mesh.halo_exchange_s": ("mesh.halo_exchange",),
    "machine.vm_account_s": ("machine.vm_account",),
    "machine.collectives_s": ("machine.collectives",),
    "machine.trace_snapshot_s": ("machine.trace_snapshot",),
    "machine.stats_epoch_s": ("machine.stats_epoch",),
    "core.redistribute_s": ("core.redistribute",),
    "core.policy_s": ("core.policy",),
    "parallel_exec.scatter_s": ("parallel_exec.scatter",),
    "parallel_exec.gather_push_s": ("parallel_exec.gather_push",),
    "parallel_exec.classify_s": ("parallel_exec.classify",),
    "driver.self_s": ("driver.run", "driver.step"),
    "driver.result_s": ("driver.result",),
    "service.heartbeat_s": ("service.heartbeat",),
    "service.worker_self_s": ("service.worker_main",),
    "pic.checkpoint_s": ("pic.checkpoint",),
    "telemetry.iter_hook_s": ("telemetry.iter_hook",),
    "telemetry.export_s": ("telemetry.export",),
}


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def patch_modules(rec: SpanRecorder) -> None:
    """Rebind module-level names and construction-time methods to spans."""
    for module, name, span in _MODULE_SPANS:
        # scatter_segment and FlatBackend.scatter return the same ghost tallies
        on_result = _count_ghosts(rec) if name == "scatter_segment" else None
        rec.patch(importlib.import_module(module), name, span, on_result)
    for module, cls, method, span in _CLASS_SPANS:
        rec.patch(getattr(importlib.import_module(module), cls), method, span)


def _count_ghosts(rec: SpanRecorder):
    def add(scattered) -> None:
        _, entries_per_rank, unique_per_rank, _ = scattered
        rec.counters["pic.ghost_entries"] += int(entries_per_rank.sum())
        rec.counters["pic.ghost_unique"] += int(unique_per_rank.sum())

    return add


def _file_bytes(rec: SpanRecorder, counter: str):
    def add(path) -> None:
        rec.counters[counter] += os.path.getsize(path)

    return add


def instrument_sim(rec: SpanRecorder, sim) -> None:
    """Shadow the public methods of one ``Simulation`` and what it owns."""
    from repro.core.metrics import load_imbalance, particle_counts

    vm, pic = sim.vm, sim.pic
    for attr in _VM_ACCOUNT:
        rec.patch(vm, attr, "machine.vm_account")

    def count_traffic(epoch: dict) -> None:
        for comm in epoch.values():
            rec.counters["machine.msgs_total"] += comm.total_msgs
            rec.counters["machine.bytes_total"] += comm.total_bytes

    rec.patch(vm.stats, "snapshot_epoch", "machine.stats_epoch", on_result=count_traffic)
    rec.patch(sim.trace, "snapshot", "machine.trace_snapshot")

    def sample_imbalance(_result) -> None:
        rec.counters["core.imbalance_sum"] += load_imbalance(particle_counts(pic.particles))
        rec.counters["core.imbalance_samples"] += 1

    rec.patch(pic, "step", "driver.step", on_result=sample_imbalance)
    for attr in ("scatter", "field_solve", "gather_push"):
        if hasattr(pic, attr):  # the modern stepper keeps its phases private
            rec.patch(pic, attr, f"pic.{attr}")
    rec.patch(pic.halo, "exchange", "mesh.halo_exchange")
    for attr in _POLICY:
        rec.patch(sim.policy, attr, "core.policy")
    if sim.redistributor is not None:
        rec.patch(sim.redistributor, "redistribute", "core.redistribute")
        if sim.redistributor.classifier is not None:
            rec.patch(sim.redistributor, "classifier", "parallel_exec.classify")
    if sim.backend is not None:
        rec.patch(sim.backend, "scatter", "parallel_exec.scatter", _count_ghosts(rec))
        rec.patch(sim.backend, "gather_push", "parallel_exec.gather_push")
    rec.patch(sim, "run", "driver.run")
    rec.patch(sim, "result", "driver.result")
    rec.patch(sim, "checkpoint", "pic.checkpoint", on_result=_file_bytes(rec, "pic.checkpoint_bytes"))

    def instrument_telemetry(tel) -> None:
        for attr in ("set_iteration", "begin_iteration", "end_iteration"):
            rec.patch(tel, attr, "telemetry.iter_hook")
        rec.patch(tel.tracer, "record_phase", "telemetry.iter_hook")
        for attr in ("save_metrics", "save_trace"):
            rec.patch(tel, attr, "telemetry.export", on_result=_file_bytes(rec, "telemetry.bytes_written"))

    rec.patch(sim, "enable_telemetry", "telemetry.iter_hook", on_result=instrument_telemetry)


def _iteration_ms(rec: SpanRecorder) -> list[float]:
    """Host milliseconds per iteration: step start to next step start / run end."""
    samples: list[float] = []
    run_end = previous = None
    for name, start, end, _parent in rec.spans:
        if name == "driver.run":
            if previous is not None:
                samples.append(run_end - previous)
            run_end, previous = end, None
        elif name == "driver.step":
            if previous is not None:
                samples.append(start - previous)
            previous = start
    if previous is not None:
        samples.append(run_end - previous)
    return [1e3 * s for s in samples]


def layer_values(rec: SpanRecorder, sims: list, redistributions: int) -> dict[str, float]:
    """Every span- and count-derived per-layer metric of one traced pass."""
    self_times = rec.self_times()
    values = {
        metric: sum(self_times.get(span, 0.0) for span in spans)
        for metric, spans in SPAN_METRICS.items()
    }
    values["parallel_exec.pool_start_s"] = sum(rec.durations("parallel_exec.pool_start"))
    run_time = sum(rec.durations("driver.run"))
    values["driver.self_frac"] = values["driver.self_s"] / run_time if run_time else 0.0
    counters = rec.counters
    entries = counters["pic.ghost_entries"]
    values["pic.ghost_entries"] = entries
    values["pic.ghost_unique_frac"] = counters["pic.ghost_unique"] / entries if entries else 0.0
    samples = counters["core.imbalance_samples"]
    values["core.imbalance_mean"] = counters["core.imbalance_sum"] / samples if samples else 0.0
    for name in ("machine.msgs_total", "machine.bytes_total", "pic.checkpoint_bytes",
                 "telemetry.bytes_written"):  # fmt: skip
        values[name] = counters[name]
    values["machine.ops_total"] = sum(sim.vm.ops.total() for sim in sims)
    values["core.redistributions"] = redistributions
    return values


# ----------------------------------------------------------------------
# traced passes
# ----------------------------------------------------------------------
def traced_sim_pass(plan: Plan) -> tuple[SpanRecorder, PassResult, dict[str, float]]:
    """``sim_pass`` with every layer wrapped; the recorder, result and values."""
    from repro.pic.simulation import Simulation, config_from_dict

    (job,) = plan.jobs
    rec = SpanRecorder()
    patch_modules(rec)
    try:
        with rec.span("driver.construct"):
            sim = Simulation(config_from_dict(job.config), workers=plan.workers)
        try:
            instrument_sim(rec, sim)
            result = sim.run(job.iterations)
            values = layer_values(rec, [sim], result.n_redistributions)
        finally:
            sim.close()
    finally:
        rec.restore()
    (wall,) = rec.durations("driver.run")
    passed = PassResult(wall, result.total_time, [result.final_state], degraded=result.degraded)
    return rec, passed, values


class _RecordingConn:
    """Stand-in for the worker's pipe end: pickles each message, keeps the last."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.kinds: list[str] = []
        self.done: dict | None = None
        self.send = rec.wrap("service.heartbeat", self._send)

    def _send(self, message) -> None:
        ForkingPickler.dumps(message)  # what Connection.send does before the write
        kind, body = message
        self.kinds.append(kind)
        if kind == "done":
            self.done = body["payload"]

    def close(self) -> None:
        pass


class _SimulationFactory:
    """Stand-in for the name ``Simulation`` in ``repro.service.worker``."""

    def __init__(self, rec: SpanRecorder, real, sims: list) -> None:
        self._rec, self._real, self._sims = rec, real, sims

    def __call__(self, config, **kwargs):
        with self._rec.span("driver.construct"):
            sim = self._real(config, **kwargs)
        instrument_sim(self._rec, sim)
        self._sims.append(sim)
        return sim

    def __getattr__(self, name):
        return getattr(self._real, name)


def replay_jobs(specs: list, directory: Path, traced: bool):
    """Each job through ``worker_main`` in this process, one after another.

    Returns ``(recorder, wall, payloads, layer values or None)``.
    """
    from repro.service import worker

    rec = SpanRecorder()
    sims: list = []
    if traced:
        patch_modules(rec)
        rec.replace(worker, "Simulation", _SimulationFactory(rec, worker.Simulation, sims))
    workdir = directory / "work"
    obs_dir = directory / "obs"
    for path in (workdir, obs_dir):
        path.mkdir()
    payloads = []
    try:
        t0 = perf_counter()
        for spec in specs:
            conn = _RecordingConn(rec)
            correlation = {"batch_id": "replay", "job_id": spec.key, "attempt": 0}
            with rec.span("service.worker_main"):
                worker.worker_main(
                    conn, spec.to_dict(), str(workdir), 2, 0, correlation, str(obs_dir)
                )
            payloads.append(conn.done)
        wall = perf_counter() - t0
        values = None
        if traced:
            redistributions = sum(p["totals"]["n_redistributions"] for p in payloads if p)
            values = layer_values(rec, sims, redistributions)
    finally:
        rec.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(obs_dir, ignore_errors=True)
    return rec, wall, payloads, values


def bare_jobs_wall(plan: Plan) -> float:
    """The same jobs as plain ``Simulation(cfg).run(N)``, summed."""
    from repro.pic.simulation import Simulation, config_from_dict

    t0 = perf_counter()
    for job in plan.jobs:
        Simulation(config_from_dict(job.config)).run(job.iterations)
    return perf_counter() - t0


def traced_batch(plan: Plan, workdir: Path, scale: str, checks: Checks):
    """``batch_mixed``'s traced run: the service from outside, the jobs inside."""
    from repro.service import Scheduler

    specs = job_specs(plan)
    directory = Path(workdir / "traced-batch")
    directory.mkdir()
    cold_scheduler, _ = make_schedulers(directory)
    t0 = perf_counter()
    cold = cold_scheduler.run(specs)
    cold_s = perf_counter() - t0
    progress = [
        r["t"] for r in cold_scheduler.telemetry.records if r.get("kind") == "job_progress"
    ]
    warm_walls, hits = [], []
    for index in range(WARM_REPLAYS[scale]):
        scheduler = Scheduler(
            workers=2, cache=directory / "cache", obs_dir=directory / f"obs-warm-{index}"
        )
        t0 = perf_counter()
        warm = scheduler.run(specs)
        warm_walls.append(perf_counter() - t0)
        hits.append(warm["counters"]["cache_hits"])
    values = {
        "service.cold_s": cold_s,
        "service.warm_s": statistics.median(warm_walls),
        "service.first_start_s": min(progress) if progress else 0.0,
        "service.cache_hits": float(min(hits)),
        "service.retries": float(cold["counters"]["retries"]),
        "service.jobs_failed": float(cold["counters"]["failed"]),
    }
    for job in cold["jobs"]:
        values[f"service.job.{job['name']}.wall_s"] = job["wall"]
        checks.op(job["state"] == "done", f"{job['name']}: cold state {job['state']}")
    checks.op(min(hits) == len(specs), f"warm cache hits {min(hits)}/{len(specs)}")

    _, untraced_wall, _, _ = replay_jobs(specs, directory, traced=False)
    rec, traced_wall, payloads, layers = replay_jobs(specs, directory, traced=True)
    bare = bare_jobs_wall(plan)
    values.update(layers)
    values["service.bare_job_s"] = bare
    values["service.overhead_frac"] = untraced_wall / bare - 1.0
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    replayed = [p["totals"]["total_time"] if p else None for p in payloads]
    served = [job["totals"]["total_time"] if job.get("totals") else None for job in cold["jobs"]]
    checks.op(replayed == served, f"replayed vm_s {replayed} != scheduler's {served}")
    states = [p["final_state"] if p else None for p in payloads]
    return rec, values, states


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def measure_traced(workload: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """One traced run of ``workload``: every per-layer metric."""
    load_start = os.getloadavg()[0]
    plan = generate(workload, seed, scale)
    checks = Checks()
    workdir = scratch_dir()
    try:
        expected = [expected_invariants(job) for job in plan.jobs]
        if plan.service:
            run_pass(plan.shortened(), workdir)
            rec, values, states = traced_batch(plan, workdir, scale, checks)
            traced = PassResult(0.0, 0.0, states)
        else:
            sim_pass(plan.shortened())
            reference = sim_pass(replace(plan, workers=0)).wall if plan.workers else None
            untraced = sim_pass(plan)
            rec, traced, values = traced_sim_pass(plan)
            values["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
            if reference is not None:
                values["parallel_exec.speedup_w2"] = reference / untraced.wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # the batch's own checks ran in traced_batch; its replays are plain passes here
    protocol.check_passes(checks, replace(plan, service=False), [traced], expected)
    samples = _iteration_ms(rec)
    values["driver.iter_ms_p50"] = statistics.median(samples)
    values["driver.iter_ms_p90"] = statistics.quantiles(samples, n=10)[8]
    values["driver.iter_samples"] = float(len(samples))
    values["host.loadavg_start"] = load_start
    values["host.loadavg_end"] = os.getloadavg()[0]
    trace_path = protocol.RESULTS_DIR / f"trace-{workload}.json"
    protocol.write_json(trace_path, rec.chrome_trace())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": True,
        "passes": 1,
        "chrome_trace": str(trace_path.relative_to(protocol.ROOT)),
        # a metric that does not apply to this workload is exactly 0
        "metrics": {
            m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit} for m in PER_LAYER
        },
        "ops_attempted": checks.attempted,
        "ops_failed": checks.failed,
        "failures": checks.failures,
        "environment": protocol.environment(plan, seed, load_start),
    }
