"""Fleet observability: profiling, Prometheus export, batch rollups, live view.

This package is the cross-cutting observability layer on top of the
run-level telemetry (:mod:`repro.telemetry`) and the job service
(:mod:`repro.service`):

- :mod:`repro.obs.profile` — the host-wall profile of the hot path, a fold
  of the phase recorder's rows exported as collapsed-stack flamegraph files.
- :mod:`repro.obs.prom` — Prometheus textfile-collector snapshots of an
  aggregates block (a run's fold, a batch's registry).
- :mod:`repro.obs.batch` — the ``repro report --batch`` aggregator that
  joins a batch's service stream with its per-job metrics files.
- :mod:`repro.obs.top` — the ``repro top`` live batch view over the
  streamed ``service.jsonl``, and :class:`~repro.obs.top.BatchView`, the
  one fold of a stream's job events that the dashboard, the rollup's job
  table and ``repro jobs --stream`` all read.

None of these parses JSONL itself: every stream goes through
:func:`repro.telemetry.stream.read_jsonl`, and a malformed one ends in
:class:`~repro.util.errors.TelemetrySchemaError`.

Everything here follows the repo's zero-cost contract (DESIGN.md §5.8):
observability off means dormant ``is None`` hooks and bit-identical
results; observability on never touches virtual clocks or op counts.
"""

from repro.obs.batch import BATCH_ROLLUP_SCHEMA, aggregate_batch, render_batch_rollup
from repro.obs.profile import PhaseProfiler
from repro.obs.prom import (
    parse_prom_text,
    render_prom_text,
    write_prom_snapshot,
)
from repro.obs.top import BatchView, render_top, top_loop

__all__ = [
    "BATCH_ROLLUP_SCHEMA",
    "BatchView",
    "PhaseProfiler",
    "aggregate_batch",
    "parse_prom_text",
    "render_batch_rollup",
    "render_prom_text",
    "render_top",
    "top_loop",
    "write_prom_snapshot",
]
