"""Unified run telemetry: one event stream, its views, and its validators.

The observability layer of the reproduction (DESIGN.md §5.4).  Everything
a traced run or a job batch records goes into one
:class:`~repro.telemetry.stream.EventStream` (header, ordered records,
closing aggregates summary), written as JSONL and read back by one
reader, :func:`~repro.telemetry.stream.read_jsonl`.  One
:class:`RunTelemetry` per run is such a stream (schema
``repro-metrics/1``) of iteration records fed by the simulation driver,
the redistribution policies and the guard / fault layer, plus a
:class:`SpanTracer` of (iteration, phase, rank) intervals on the virtual
clocks.  Everything else is a view of the records: the run's aggregates
(counters / gauges / histogram summaries) are one fold over them, and
the Chrome-trace export adds the stream's events as instant markers and
its iteration records as counter tracks.

The job service's batch stream (``repro-service/2``) is the same stream
type one level up, with a live :class:`MetricsRegistry` of counters and
gauges that the scheduler reads mid-batch.  ``validate_metrics`` /
``validate_service`` share one envelope check over a per-schema table;
a malformed file raises :class:`TelemetrySchemaError`.

Telemetry is strictly opt-in and zero-cost when off: a run without it
carries only dormant ``is None`` branches and produces bit-identical
``vm.elapsed()`` / ``vm.ops`` / summary JSON.
"""

from repro.telemetry.collector import METRICS_SCHEMA, RunTelemetry
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry
from repro.telemetry.report import (
    ascii_series,
    format_table,
    render_comparison,
    render_report,
    report_from_files,
)
from repro.telemetry.schema import (
    ParsedMetrics,
    ParsedService,
    TelemetrySchemaError,
    validate_metrics,
    validate_service,
    validate_trace,
)
from repro.telemetry.spans import TRACE_SCHEMA, Span, SpanTracer
from repro.telemetry.stream import EventStream, read_jsonl

__all__ = [
    "RunTelemetry",
    "EventStream",
    "read_jsonl",
    "SpanTracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "ParsedMetrics",
    "ParsedService",
    "TelemetrySchemaError",
    "validate_trace",
    "validate_metrics",
    "validate_service",
    "render_report",
    "render_comparison",
    "report_from_files",
    "format_table",
    "ascii_series",
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
]
