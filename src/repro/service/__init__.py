"""Fault-tolerant multi-run job service (DESIGN.md §5.7).

Submit a batch of simulation jobs, get every result back or a
structured account of why not: a supervised :class:`Scheduler` runs
jobs on worker processes with heartbeats, per-job deadlines, retry with
exponential backoff, checkpoint-based resume of interrupted attempts,
pool shrinking under repeated worker loss, a ``max_failures`` circuit
breaker — and an integrity-checked, content-addressed
:class:`ResultCache` that serves repeat submissions bit-identically
without running anything.  Every job transition is one event of the
batch's :class:`ServiceTelemetry` stream, and the batch report reads its
counters off that stream.
"""

from repro.service.cache import CACHE_SCHEMA, ResultCache, payload_digest
from repro.service.jobs import (
    BATCH_SCHEMA,
    JobRecord,
    JobSpec,
    JobState,
    canonical_json,
    code_digest,
    job_key,
)
from repro.service.scheduler import (
    Scheduler,
    backoff_delay,
    derive_batch_id,
    render_report,
)
from repro.service.sweep import expand_jobs, load_jobs
from repro.service.telemetry import SERVICE_SCHEMA, ServiceTelemetry
from repro.service.worker import job_artifact_stem

__all__ = [
    "BATCH_SCHEMA",
    "CACHE_SCHEMA",
    "SERVICE_SCHEMA",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ResultCache",
    "Scheduler",
    "ServiceTelemetry",
    "backoff_delay",
    "canonical_json",
    "code_digest",
    "derive_batch_id",
    "expand_jobs",
    "job_artifact_stem",
    "job_key",
    "load_jobs",
    "payload_digest",
    "render_report",
]
