"""Run-level telemetry orchestration: spans + records + JSONL export.

:class:`RunTelemetry` is the single object a
:class:`~repro.pic.simulation.Simulation` owns when telemetry is
enabled.  It bundles

* the run's :class:`~repro.telemetry.spans.SpanTracer`, attached to the
  virtual machine (``vm.tracer``), whose per-rank virtual clock columns
  give every (iteration, phase, rank) interval, and
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
  - a final ``summary`` record with the iteration count and the
    run's aggregates.

  The aggregates (the ``telemetry`` block of ``SimulationResult.to_dict()``)
  are one fold over the records (:meth:`RunTelemetry.aggregates`), and the
  Chrome trace's instant markers and counter tracks are views of them too
  (:meth:`to_chrome`): nothing is tallied twice.

The zero-cost contract: nothing in this module reads or charges the
virtual clocks, so a run with telemetry attached produces bit-identical
``vm.elapsed()`` / ``vm.ops`` / result summaries to one without.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Sequence
from functools import reduce
from operator import add
from pathlib import Path

from repro.core.metrics import load_imbalance
from repro.telemetry.spans import SpanTracer
from repro.telemetry.stream import EventStream
from repro.util.atomic_io import atomic_write_text

__all__ = ["RunTelemetry", "METRICS_SCHEMA", "fold_aggregates"]

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


def _histogram(values: list[float]) -> dict:
    """``count / sum / min / max / mean`` of ``values``, summed in order from ``0.0``."""
    total = reduce(add, values, 0.0)  # not sum(): it compensates on Python >= 3.12
    value = {"count": len(values), "sum": total, "min": min(values), "max": max(values)}
    return {"kind": "histogram", "value": {**value, "mean": total / len(values)}}


def fold_aggregates(records: Sequence[dict], pending_sar: Sequence[dict] = ()) -> dict:
    """A run's ``{instrument: {"kind", "value"}}`` block, sorted by name: one
    fold over the body ``records`` of its metrics stream (so a saved body
    folds to its summary's block) and the SAR decisions still pending.
    Counters sum in record order from ``0.0``, gauges read the last
    iteration, and an instrument appears once a record feeds it."""
    iterations = [rec for rec in records if rec["type"] == "iteration"]
    kinds = [rec["kind"] for rec in records if rec["type"] == "event"]
    decisions = [d for rec in iterations for d in rec["sar_decisions"]] + list(pending_sar)
    costs = [rec["redistribution_cost"] for rec in iterations if rec["redistributed"]]
    counts = {
        "iterations": len(iterations),
        "redistribution.count": len(costs),
        "sar.evaluations": len(decisions),
        "sar.fired": len([d for d in decisions if d.get("fired")]),
        "guard.violations": kinds.count("guard_violation"),
        "recovery.count": kinds.count("shrink"),
    }
    sums = defaultdict(float, {name: float(n) for name, n in counts.items() if n})
    for rec in iterations:
        if "ghost" in rec:
            sums["ghost.entries"] += max(rec["ghost"]["entries"], 0.0)
        for phase, tallies in rec["comm"].items():
            sums[f"comm.{phase}.msgs"] += tallies["msgs"]
            sums[f"comm.{phase}.bytes"] += tallies["bytes"]
    out = {name: {"kind": "counter", "value": value} for name, value in sums.items()}
    if iterations:
        last = iterations[-1]
        out["iteration.time"] = _histogram([rec["t_iter"] for rec in iterations])
        out["load.imbalance"] = _histogram([rec["imbalance"] for rec in iterations])
        out["load.imbalance.last"] = {"kind": "gauge", "value": float(last["imbalance"])}
        out["ranks.live"] = {"kind": "gauge", "value": float(last["p"])}
    if costs:
        out["redistribution.cost"] = _histogram(costs)
    return dict(sorted(out.items()))


class RunTelemetry(EventStream):
    """Telemetry state for one simulation run.

    Parameters
    ----------
    p:
        Rank count of the machine at enable time.
    config:
        JSON-serializable run configuration embedded in the metrics
        header (``config_to_dict`` output); optional.
    correlation:
        Batch identity (``{"batch_id", "job_id", "attempt"}``) stamped
        by the job service; embedded in the header and the trace export
        so per-job artifacts join with the batch's service stream.
    tracer:
        The run's phase recorder, shared with its profiler (a new one if
        ``None``); telemetry switches its virtual clock columns on.
    """

    def __init__(
        self,
        p: int,
        *,
        config: dict | None = None,
        correlation: dict | None = None,
        tracer: SpanTracer | None = None,
    ) -> None:
        # the header pins the rank count at enable time; shrink events walk
        # readers to the live count from there
        super().__init__(METRICS_SCHEMA, p=int(p), config=config)
        self.set_correlation(correlation)
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.tracer.virtual = True
        self.tracer.note_ranks(p)
        self._pending_sar: list[dict] = []
        self._iter_t0: float | None = None
        self._iter_ops: dict[str, float] = {}
        self._iter_ghost: tuple[float, float] | None = None

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

        ``phase_time`` is the iteration's per-phase time increment (the
        row :meth:`~repro.machine.trace.PhaseTrace.snapshot` returns; the
        records are the only place a run keeps these rows);
        ``comm_epochs`` are the :meth:`CommStats.snapshot_epoch` dicts
        popped during the iteration (step traffic plus, separately, any
        redistribution traffic).
        """
        t_end = vm.elapsed()
        t_start = self._iter_t0 if self._iter_t0 is not None else t_end
        counts = pic.pool.counts
        imbalance = load_imbalance(counts)
        before = self._iter_ops  # the op kinds that grew, by how much
        ops_delta = {k: d for k, v in vm.ops.items() if (d := v - before.get(k, 0.0)) > 0.0}
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
        self._pending_sar = []
        return self.append(record)

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

    def record_guard_violation(self, message: str) -> None:
        """Sink for invariant-guard violations (warn mode keeps running)."""
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
        self.tracer.note_ranks(p_new)
        self.record_event(
            "shrink", t=t, iteration=iteration, dead_rank=int(dead_rank), p=int(p_new)
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def _iterations(self) -> list[dict]:
        return [rec for rec in self.records if rec["type"] == "iteration"]

    def aggregates(self) -> dict:
        """The run's aggregate block: :func:`fold_aggregates` of its records
        and of the SAR decisions still pending."""
        return fold_aggregates(self.records, self._pending_sar)

    def set_correlation(self, correlation: dict | None) -> None:
        """Stamp (or clear) the batch identity on header + trace export."""
        self.header_fields["correlation"] = dict(correlation) if correlation is not None else None

    def summary(self) -> dict:
        """The closing JSONL summary record."""
        return {"type": "summary", "iterations": len(self._iterations()), **super().summary()}

    save_metrics = EventStream.save

    def to_chrome(self) -> dict:
        """The Chrome-trace document: the tracer's spans plus the stream's markers."""
        return self.tracer.to_chrome(self.records, self.header_fields["correlation"])

    def save_trace(self, path: str | Path) -> Path:
        """Atomically write the Perfetto/Chrome trace JSON to ``path`` and return it."""
        return atomic_write_text(Path(path), json.dumps(self.to_chrome()) + "\n")

    def __repr__(self) -> str:
        return f"RunTelemetry(iterations={len(self._iterations())}, records={len(self.records)})"
