"""Batch rollups: join a service stream with its per-job run telemetry.

``repro submit --obs-dir DIR`` leaves one directory per batch:

* ``service.jsonl`` — the scheduler's event stream (schema
  ``repro-service/2``), validated by
  :func:`repro.telemetry.schema.validate_service`;
* ``job-<id12>-a<n>.metrics.jsonl`` / ``.trace.json`` — each attempt's
  run-level telemetry, stamped with the batch's correlation identity.

:func:`aggregate_batch` reads all of it and produces one rollup
document (schema ``repro-batch-rollup/1``): per-policy phase-time
breakdowns, load-imbalance distributions, retry / cache / quarantine
counters, the queue-depth timeline, and a correlation audit proving
that every artifact joins on ``batch_id`` / ``job_id`` / ``attempt``
with no orphans.  ``repro report --batch DIR`` renders it via
:func:`render_batch_rollup`.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.top import BatchView
from repro.telemetry.report import format_table
from repro.telemetry.schema import (
    ParsedMetrics,
    ParsedService,
    TelemetrySchemaError,
    validate_metrics,
    validate_service,
)

__all__ = ["BATCH_ROLLUP_SCHEMA", "aggregate_batch", "render_batch_rollup"]

#: Schema marker on every rollup document.
BATCH_ROLLUP_SCHEMA = "repro-batch-rollup/1"

#: the service stream file name inside an obs directory
STREAM_NAME = "service.jsonl"


def _counter(summary: dict | None, name: str) -> float:
    """One counter value from a service summary's registry snapshot."""
    if summary is None:
        return 0.0
    entry = (summary.get("aggregates") or {}).get(name)
    if not entry or entry.get("kind") != "counter":
        return 0.0
    return float(entry.get("value") or 0.0)


def _jobs_detail(stream: ParsedService) -> dict[str, dict]:
    """The rollup's job table: one row per job of the stream's :class:`BatchView` fold.

    Only complete streams reach here, so every job's state is the one its
    last (terminal) event set.
    """
    view = BatchView()
    view.apply_all(stream.events)
    return {
        name: {
            "job_id": row["job_id"],
            "launches": row["launches"],
            "retries": row["retries"],
            "attempts": row["attempt"] + 1,
            "state": row["state"],
            "cached": row["cached"],
            "wall": float(row["wall"] or 0.0),
        }
        for name, row in view.jobs.items()
    }


def _imbalance_summary(values: list[float]) -> dict | None:
    if not values:
        return None
    return {
        "count": len(values),
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
    }


def _policy_rollup(parsed: list[tuple[str, ParsedMetrics]]) -> dict[str, dict]:
    """Group per-job metrics by redistribution policy and total them."""
    policies: dict[str, dict] = {}
    for _, metrics in parsed:
        cfg = metrics.header.get("config") or {}
        policy = str(cfg.get("policy", "?"))
        entry = policies.setdefault(
            policy,
            {"runs": 0, "iterations": 0, "phase_time": {}, "_imbalances": []},
        )
        entry["runs"] += 1
        entry["iterations"] += len(metrics.iterations)
        for rec in metrics.iterations:
            for phase, dt in rec["phase_time"].items():
                entry["phase_time"][phase] = entry["phase_time"].get(phase, 0.0) + dt
            entry["_imbalances"].append(float(rec["imbalance"]))
    for entry in policies.values():
        entry["imbalance"] = _imbalance_summary(entry.pop("_imbalances"))
        entry["phase_time"] = {
            k: round(v, 6) for k, v in sorted(entry["phase_time"].items())
        }
    return policies


def aggregate_batch(directory: str | Path) -> dict:
    """Aggregate one batch obs directory into a rollup document.

    Validates the service stream and every ``job-*.metrics.jsonl`` it
    finds, joins them on the correlation identity, and raises
    :class:`~repro.telemetry.schema.TelemetrySchemaError` if the
    directory has no (valid) service stream.  Per-job metrics whose
    ``batch_id`` does not match the stream's — or which carry no
    correlation at all — are reported as orphans, not silently merged.
    """
    directory = Path(directory)
    stream_path = directory / STREAM_NAME
    if not stream_path.exists():
        raise TelemetrySchemaError(f"{directory} has no {STREAM_NAME} stream")
    stream = validate_service(stream_path)
    batch_id = stream.batch_id

    metrics_paths = sorted(directory.glob("job-*.metrics.jsonl"))
    joined: list[tuple[str, ParsedMetrics]] = []
    orphans: list[dict] = []
    jobs = _jobs_detail(stream)
    known_job_ids = {row["job_id"] for row in jobs.values() if row["job_id"]}
    for path in metrics_paths:
        metrics = validate_metrics(path)
        corr = metrics.header.get("correlation")
        if not corr or corr.get("batch_id") != batch_id:
            orphans.append({"file": path.name, "reason": "batch_id mismatch or missing"})
        elif corr.get("job_id") not in known_job_ids:
            orphans.append({"file": path.name, "reason": "job_id not in stream"})
        else:
            joined.append((path.name, metrics))

    queue_timeline = [
        [ev["t"], ev["queue_depth"]]
        for ev in stream.events
        if "queue_depth" in ev
    ]
    summary = stream.summary
    rollup = {
        "schema": BATCH_ROLLUP_SCHEMA,
        "batch_id": batch_id,
        "stream_schema": stream.schema,
        "jobs": int(stream.header["jobs"]),
        "workers": int(stream.header["workers"]),
        "started_at": stream.header.get("started_at"),
        "counters": {
            "completed": _counter(summary, "jobs.completed"),
            "failed": _counter(summary, "jobs.failed"),
            "cancelled": _counter(summary, "jobs.cancelled"),
            "retries": _counter(summary, "jobs.retries"),
            "timeouts": _counter(summary, "jobs.timeouts"),
            "cache_hits": _counter(summary, "cache.hits"),
            "cache_misses": _counter(summary, "cache.misses"),
            "cache_quarantined": _counter(summary, "cache.quarantined"),
            "workers_lost": _counter(summary, "workers.lost"),
            "heartbeats_lost": _counter(summary, "heartbeats.lost"),
            "pool_shrinks": _counter(summary, "pool.shrinks"),
        },
        "queue_depth_timeline": queue_timeline,
        "jobs_detail": jobs,
        "policies": _policy_rollup(joined),
        "correlation": {
            "metrics_files": len(metrics_paths),
            "joined": len(joined),
            "orphans": orphans,
        },
    }
    return rollup


def render_batch_rollup(rollup: dict) -> str:
    """Render a rollup document as a terminal report string."""
    out: list[str] = []
    title = "=== batch report"
    if rollup.get("batch_id"):
        title += f": {rollup['batch_id']}"
    out.append(title + " ===")
    c = rollup["counters"]
    out.append(
        f"jobs: {rollup['jobs']}   workers: {rollup['workers']}   "
        f"done: {c['completed']:.0f}   failed: {c['failed']:.0f}   "
        f"cancelled: {c['cancelled']:.0f}"
    )
    out.append(
        f"retries: {c['retries']:.0f}   timeouts: {c['timeouts']:.0f}   "
        f"cache: {c['cache_hits']:.0f} hit / {c['cache_misses']:.0f} miss "
        f"/ {c['cache_quarantined']:.0f} quarantined   "
        f"workers lost: {c['workers_lost']:.0f}   "
        f"pool shrinks: {c['pool_shrinks']:.0f}"
    )

    jobs = rollup.get("jobs_detail") or {}
    if jobs:
        rows = [
            [
                name,
                row["state"],
                row["attempts"],
                row["retries"],
                "yes" if row["cached"] else "no",
                round(float(row["wall"]), 2),
                (row["job_id"] or "")[:12],
            ]
            for name, row in sorted(jobs.items())
        ]
        out.append("")
        out.append(
            format_table(
                ["job", "state", "attempts", "retries", "cache", "wall (s)", "key"],
                rows,
            )
        )

    policies = rollup.get("policies") or {}
    if policies:
        phases = sorted({p for entry in policies.values() for p in entry["phase_time"]})
        rows = []
        for policy, entry in sorted(policies.items()):
            imb = entry.get("imbalance") or {}
            rows.append(
                [policy, entry["runs"], entry["iterations"]]
                + [round(entry["phase_time"].get(p, 0.0), 4) for p in phases]
                + [round(imb.get("mean", 0.0), 3), round(imb.get("max", 0.0), 3)]
            )
        out.append("")
        out.append(
            format_table(
                ["policy", "runs", "iters"] + phases + ["imb mean", "imb max"],
                rows,
                title="per-policy phase time (virtual s) + load imbalance",
            )
        )

    timeline = rollup.get("queue_depth_timeline") or []
    if timeline:
        peak = max(d for _, d in timeline)
        out.append("")
        out.append(
            f"queue depth: peak {peak} over {len(timeline)} events "
            f"({timeline[-1][0]:.2f}s span)"
        )

    corr = rollup.get("correlation") or {}
    out.append("")
    out.append(
        f"correlation: {corr.get('joined', 0)}/{corr.get('metrics_files', 0)} "
        f"metrics files joined"
    )
    for orphan in corr.get("orphans", []):
        out.append(f"  ORPHAN {orphan['file']}: {orphan['reason']}")
    return "\n".join(out)
