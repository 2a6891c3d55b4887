"""Batch-level telemetry for the job service.

The run-level stream one level up: a :class:`ServiceTelemetry` is the
same :class:`~repro.telemetry.stream.EventStream` as a run's, holding
scheduler events (launches, progress, heartbeats lost, retries, worker
deaths, cancellations, cache hits and quarantines, pool shrinks,
circuit-breaker trips) plus the
:class:`~repro.telemetry.metrics.MetricsRegistry` of the batch-wide
counters those events bump and the queue-depth gauge, and writes them
as JSONL — schema ``repro-service/2``: a ``header`` line, ``event``
lines in occurrence order, and a closing ``summary`` with the registry
snapshot.  The registry is live (the scheduler reads it mid-batch) and
the batch's only tally: the report's ``counters`` are
:func:`report_counters` of the summary.

Timestamps follow the observability contract (DESIGN.md §5.8): every
event's ``t`` is a ``time.monotonic()`` delta from batch start, so
wall-clock steps (NTP, suspend) can never produce negative or jumping
values mid-stream; the absolute wall-clock start lives in the header
only (``started_at``, ``time.time()``).  Schema ``/2`` additionally
carries the batch's correlation identity: ``batch_id`` in the header and
``job_id``/``attempt`` on every job-scoped event, so the stream joins
with per-job metrics, traces, checkpoints and result documents.

Unlike run telemetry there is no zero-cost clause to honour — the
scheduler lives entirely off the virtual clocks — so the stream is
always recorded and saving it is opt-in (``repro submit --metrics``).
With :meth:`~repro.telemetry.stream.EventStream.stream_to` the stream
is *also* appended live, line by flushed line, which is what
``repro top`` tails.
"""

from __future__ import annotations

import time

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.stream import EventStream

__all__ = ["ServiceTelemetry", "SERVICE_SCHEMA", "report_counters"]

#: Schema marker on the first line of every service metrics stream.
SERVICE_SCHEMA = "repro-service/2"

#: minimum seconds between two job_progress events for the same job
_PROGRESS_EVERY = 0.2

#: event kind -> the registry counter every such event bumps
_COUNTED = {
    "job_launched": "jobs.launched",
    "job_done": "jobs.completed",
    "job_retry": "jobs.retries",
    "job_failed": "jobs.failed",
    "job_timeout": "jobs.timeouts",
    "heartbeat_lost": "heartbeats.lost",
    "worker_lost": "workers.lost",
    "job_cancelled": "jobs.cancelled",
    "pool_shrink": "pool.shrinks",
    "cache_quarantine": "cache.quarantined",
}

#: batch-report counter -> the registry counter it reads, in report order
REPORT_COUNTERS = {
    "completed": "jobs.completed",
    "failed": "jobs.failed",
    "cancelled": "jobs.cancelled",
    "cache_hits": "cache.hits",
    "retries": "jobs.retries",
    "timeouts": "jobs.timeouts",
    "heartbeats_lost": "heartbeats.lost",
    "worker_losses": "workers.lost",
    "quarantined": "cache.quarantined",
    "pool_shrinks": "pool.shrinks",
}


def report_counters(summary: dict) -> dict[str, int]:
    """The batch report's ``counters``, read off a service stream's ``summary``.

    A counter no event bumped is absent from the registry and reads 0.
    """
    aggregates = summary["aggregates"]
    return {
        key: int(aggregates[name]["value"]) if name in aggregates else 0
        for key, name in REPORT_COUNTERS.items()
    }


class ServiceTelemetry(EventStream):
    """Event stream + metrics registry for one scheduler batch."""

    def __init__(
        self,
        *,
        jobs: int,
        workers: int,
        params: dict | None = None,
        batch_id: str | None = None,
    ) -> None:
        super().__init__(
            SERVICE_SCHEMA,
            jobs=int(jobs),
            workers=int(workers),
            started_at=round(time.time(), 6),
            params=dict(params or {}),
            batch_id=batch_id,
        )
        #: the batch-wide counters and gauges, read live by the scheduler
        self.registry = MetricsRegistry()
        self._t0 = time.monotonic()
        self._queue_depth = 0
        self._last_progress: dict[str, float] = {}

    def aggregates(self) -> dict:
        """The registry's snapshot: the closing summary's block."""
        return self.registry.snapshot()

    def set_queue_depth(self, depth: int) -> None:
        """Update the queue-depth gauge (stamped onto subsequent events)."""
        self._queue_depth = int(depth)
        self.registry.gauge("queue.depth").set(depth)

    def event(self, kind: str, job=None, **fields) -> dict:
        """Record one scheduler event, bumping its counter; return the stored record.

        ``job`` (a ``JobRecord``, or a plain name in tests) scopes the event
        to one job: the record names it and carries its correlation
        identity, ``job_id`` and ``attempt`` (an explicit ``attempt`` wins,
        as ``job_retry``'s upcoming attempt does).
        """
        if kind in _COUNTED:
            self.registry.counter(_COUNTED[kind]).inc()
        if kind == "job_done" and fields.get("cached"):
            self.registry.counter("cache.hits").inc()
        record = {
            "type": "event",
            "kind": kind,
            "t": round(time.monotonic() - self._t0, 6),
            "queue_depth": self._queue_depth,
        }
        if job is not None:
            if not isinstance(job, str):
                fields.setdefault("job_id", job.key)
                fields.setdefault("attempt", int(job.attempt))
                job = job.name
            record["job"] = job
        return self.append({**record, **fields})

    def on_heartbeat(
        self,
        job,
        iteration: int,
        *,
        total: int | None = None,
        imbalance: float | None = None,
    ) -> None:
        """Count a worker heartbeat; stream it as a throttled ``job_progress``."""
        self.registry.counter("heartbeats.received").inc()
        if imbalance is not None:
            self.registry.gauge("jobs.imbalance.last").set(imbalance)
        # throttle the stream: one progress event per job per
        # _PROGRESS_EVERY seconds, plus always the final iteration
        name = job if isinstance(job, str) else job.name
        now = time.monotonic()
        final = total is not None and iteration >= total
        if not final and now - self._last_progress.get(name, -1.0) < _PROGRESS_EVERY:
            return
        self._last_progress[name] = now
        fields: dict = {"iteration": int(iteration)}
        if total is not None:
            fields["total"] = int(total)
        if imbalance is not None:
            fields["imbalance"] = round(float(imbalance), 6)
        self.event("job_progress", job, **fields)
