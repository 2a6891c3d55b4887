"""Run-level telemetry orchestration: spans + metrics + JSONL export.

:class:`RunTelemetry` is the single object a
:class:`~repro.pic.simulation.Simulation` owns when telemetry is
enabled.  It bundles

* a :class:`~repro.telemetry.spans.SpanTracer` attached to the virtual
  machine (``vm.tracer``) that captures every (iteration, phase, rank)
  interval on the virtual clocks,
* a :class:`~repro.telemetry.metrics.MetricsRegistry` of run-wide
  counters / gauges / histograms, and
* the run's :class:`~repro.telemetry.stream.EventStream` of
  per-iteration records and one-off events that :meth:`save_metrics`
  writes as JSONL — one JSON object per line, schema
  ``repro-metrics/1``:

  - line 1: a ``header`` record (schema marker, rank count, config);
  - one ``iteration`` record per completed iteration — phase time
    increments, per-rank particle counts and load imbalance, per-phase
    message/byte tallies, ghost-table hit stats, op-count deltas,
    redistribution-decision records, redistribution outcome;
  - ``event`` records (checkpoint written, rank failure, recovery,
    machine shrink) interleaved in occurrence order;
  - a final ``summary`` record with the registry snapshot and totals.

  The Chrome trace's instant markers and counter tracks are views of
  the same records (:meth:`to_chrome`).

The zero-cost contract: nothing in this module reads or charges the
virtual clocks, so a run with telemetry attached produces bit-identical
``vm.elapsed()`` / ``vm.ops`` / result summaries to one without.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.metrics import load_imbalance
from repro.telemetry.spans import SpanTracer
from repro.telemetry.stream import EventStream
from repro.util.atomic_io import atomic_write_text

__all__ = ["RunTelemetry", "METRICS_SCHEMA"]

#: Schema marker on the first line of every metrics JSONL stream.
METRICS_SCHEMA = "repro-metrics/1"


def _comm_dict(epochs: list[dict]) -> dict:
    """Merge per-phase ``PhaseComm`` snapshots into plain JSON tallies."""
    out: dict[str, dict] = {}
    for epoch in epochs:
        for phase, rec in epoch.items():
            tallies = rec.to_dict()
            entry = out.get(phase)
            if entry is None:
                out[phase] = tallies
            else:
                entry["msgs"] += tallies["msgs"]
                entry["bytes"] += tallies["bytes"]
                entry["max_msgs"] = max(entry["max_msgs"], tallies["max_msgs"])
                entry["max_bytes"] = max(entry["max_bytes"], tallies["max_bytes"])
    return out


class RunTelemetry(EventStream):
    """Telemetry state for one simulation run.

    Parameters
    ----------
    p:
        Rank count of the machine at enable time.
    config:
        JSON-serializable run configuration embedded in the metrics
        header (``config_to_dict`` output); optional.
    degraded:
        Multicore-fallback marker (``Simulation.degraded``); embedded in
        the header when not ``None`` so stream readers can distinguish a
        true multicore run from a silent in-process fallback.
    correlation:
        Batch identity (``{"batch_id", "job_id", "attempt"}``) stamped
        by the job service; embedded in the header and the trace export
        so per-job artifacts join with the batch's service stream.
    """

    def __init__(
        self,
        p: int,
        *,
        config: dict | None = None,
        degraded: dict | None = None,
        correlation: dict | None = None,
    ) -> None:
        # the header pins the rank count at enable time; shrink events walk
        # readers to the live count from there
        super().__init__(METRICS_SCHEMA, p=int(p), config=config, degraded=degraded)
        self.set_correlation(correlation)
        #: live rank count (lowered by :meth:`on_shrink`)
        self.p = int(p)
        self.tracer = SpanTracer()
        self.tracer.note_ranks(p)
        self._pending_sar: list[dict] = []
        self._iter_t0: float | None = None
        self._iter_ops: dict[str, float] = {}
        self._iter_ghost: tuple[float, float] | None = None
        self.enabled_iterations = 0

    # ------------------------------------------------------------------
    # iteration lifecycle (driven by Simulation.run)
    # ------------------------------------------------------------------
    def set_iteration(self, iteration: int) -> None:
        """Advance the current-iteration tag (spans + SAR records)."""
        self.tracer.set_iteration(iteration)

    def begin_iteration(self, vm, pic) -> None:
        """Capture the baselines an iteration record is a delta against."""
        self._iter_t0 = vm.elapsed()
        self._iter_ops = vm.ops.as_dict()
        self._iter_ghost = self._ghost_totals(pic)

    @staticmethod
    def _ghost_totals(pic) -> tuple[float, float] | None:
        entries = getattr(pic, "ghost_entries", None)
        if entries is None:
            return None
        return float(entries.sum()), float(pic.ghost_ops.sum())

    def end_iteration(
        self,
        vm,
        pic,
        *,
        iteration: int,
        phase_time: dict[str, float],
        comm_epochs: list[dict],
        redistributed: bool,
        redistribution_cost: float,
    ) -> dict:
        """Assemble, store, and return this iteration's metrics record.

        ``phase_time`` is the iteration's per-phase time increment (a
        :class:`~repro.machine.trace.PhaseTrace` snapshot row);
        ``comm_epochs`` are the :meth:`CommStats.snapshot_epoch` dicts
        popped during the iteration (step traffic plus, separately, any
        redistribution traffic).
        """
        t_end = vm.elapsed()
        t_start = self._iter_t0 if self._iter_t0 is not None else t_end
        counts = pic.pool.counts
        imbalance = load_imbalance(counts)
        ops_now = vm.ops.as_dict()
        ops_delta = {
            k: v - self._iter_ops.get(k, 0.0)
            for k, v in ops_now.items()
            if v - self._iter_ops.get(k, 0.0) > 0.0
        }
        record = {
            "type": "iteration",
            "iteration": int(iteration),
            "p": vm.p,
            "t_start": t_start,
            "t_end": t_end,
            "t_iter": t_end - t_start,
            "phase_time": {k: v for k, v in sorted(phase_time.items()) if v != 0.0},
            "particles_per_rank": counts.tolist(),
            "imbalance": imbalance,
            "comm": _comm_dict(comm_epochs),
            "ops": ops_delta,
            "sar_decisions": self._pending_sar,
            "redistributed": bool(redistributed),
            "redistribution_cost": float(redistribution_cost),
        }
        ghost_now = self._ghost_totals(pic)
        if ghost_now is not None:
            g0 = self._iter_ghost or (0.0, 0.0)
            entries = ghost_now[0] - g0[0]
            unique = float(pic.ghost_unique.sum())
            record["ghost"] = {
                "entries": entries,
                "unique_nodes": unique,
                "table_ops": ghost_now[1] - g0[1],
                "hit_ratio": (1.0 - unique / entries) if entries > 0 else 0.0,
            }
            self.registry.counter("ghost.entries").inc(max(entries, 0.0))
        self._pending_sar = []
        self.append(record)
        self.enabled_iterations += 1

        # -- registry aggregates ----------------------------------------
        reg = self.registry
        reg.counter("iterations").inc()
        reg.histogram("iteration.time").observe(record["t_iter"])
        reg.histogram("load.imbalance").observe(imbalance)
        reg.gauge("load.imbalance.last").set(imbalance)
        reg.gauge("ranks.live").set(vm.p)
        for phase, tallies in record["comm"].items():
            reg.counter(f"comm.{phase}.msgs").inc(tallies["msgs"])
            reg.counter(f"comm.{phase}.bytes").inc(tallies["bytes"])
        if redistributed:
            reg.counter("redistribution.count").inc()
            reg.histogram("redistribution.cost").observe(redistribution_cost)
        return record

    # ------------------------------------------------------------------
    # decision + event feeds
    # ------------------------------------------------------------------
    def record_sar_decision(self, decision: dict) -> None:
        """Sink for redistribution-policy decision records.

        Wired as ``policy.decision_sink``; one call per
        ``should_redistribute`` evaluation.  Records accumulate on the
        pending list and are attached to the iteration record being
        assembled.
        """
        self._pending_sar.append(dict(decision))
        self.registry.counter("sar.evaluations").inc()
        if decision.get("fired"):
            self.registry.counter("sar.fired").inc()

    def record_guard_violation(self, message: str) -> None:
        """Sink for invariant-guard violations (warn mode keeps running)."""
        self.registry.counter("guard.violations").inc()
        self.append({"type": "event", "kind": "guard_violation", "message": message})

    def record_event(self, kind: str, *, t: float, iteration: int, **fields) -> None:
        """Record a one-off event (checkpoint / failure / recovery / shrink).

        Also retags the tracer, so the spans that follow a recovery carry
        the iteration the run resumes at.
        """
        self.append(
            {"type": "event", "kind": kind, "iteration": int(iteration), "t": float(t), **fields}
        )
        self.tracer.set_iteration(iteration)

    def on_shrink(self, p_new: int, dead_rank: int, iteration: int, t: float) -> None:
        """The machine shrank to ``p_new`` ranks after ``dead_rank`` died.

        Subsequent iteration records carry ``p_new``-length per-rank
        arrays; the trace marks the transition so readers never mix lane
        widths (the no-stale-rank-columns contract).
        """
        self.p = int(p_new)
        self.tracer.note_ranks(p_new)
        self.registry.counter("recovery.count").inc()
        self.record_event(
            "shrink", t=t, iteration=iteration, dead_rank=int(dead_rank), p=int(p_new)
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def aggregates(self) -> dict:
        """Final aggregate block (registry snapshot keyed by instrument)."""
        return self.registry.snapshot()

    def set_correlation(self, correlation: dict | None) -> None:
        """Stamp (or clear) the batch identity on header + trace export."""
        self.header_fields["correlation"] = dict(correlation) if correlation is not None else None

    def summary(self) -> dict:
        """The closing JSONL summary record."""
        return {"type": "summary", "iterations": self.enabled_iterations, **super().summary()}

    save_metrics = EventStream.save

    def to_chrome(self) -> dict:
        """The Chrome-trace document: the tracer's spans plus the stream's markers."""
        return self.tracer.to_chrome(self.records, self.header_fields["correlation"])

    def save_trace(self, path: str | Path) -> Path:
        """Atomically write the Perfetto/Chrome trace JSON to ``path`` and return it."""
        return atomic_write_text(Path(path), json.dumps(self.to_chrome()) + "\n")

    def __repr__(self) -> str:
        return (
            f"RunTelemetry(p={self.p}, iterations={self.enabled_iterations}, "
            f"records={len(self.records)})"
        )
