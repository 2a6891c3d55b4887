"""Supervised multi-run scheduler: the heart of the job service.

:class:`Scheduler` drains a batch of :class:`~repro.service.jobs.JobSpec`
through a pool of worker processes (one process per job attempt,
at most ``workers`` live at a time) with full fault tolerance:

* **cache first** — before a job launches, the result cache is
  consulted under the job's content hash; a verified hit completes the
  job without a process (bit-identical to the fresh run).
* **heartbeats** — workers report after every iteration; a worker
  silent past ``heartbeat_timeout`` is declared hung, killed, and the
  job rescheduled.  The watchdog arms at the worker's first message
  (``started``), so simulation construction/restore time never counts
  against the heartbeat budget; a worker hung *before* its first
  message is bounded by ``timeout``.
* **deadlines** — ``timeout`` bounds each attempt's wall clock; on
  expiry the worker is killed and the attempt counts as a
  :class:`~repro.util.errors.JobTimeout`.
* **retry with backoff** — a failed/killed/timed-out attempt is retried
  up to ``retries`` times after an exponential backoff with
  deterministic jitter (seeded by job key and attempt, so reruns of a
  batch produce identical schedules).  Retries resume from the job's
  scratch checkpoint, re-doing only iterations past the last
  checkpoint.
* **graceful degradation** — two consecutive worker deaths shrink the
  pool by one slot (never below one); ``max_failures`` is a circuit
  breaker that stops launching after N distinct job failures and
  cancels every job not yet running.  A live job that fails retryably
  *after* the breaker opened is cancelled too (never rescheduled), so
  the batch always terminates.

Each 50 ms tick of :meth:`Scheduler.run` promotes due retries into the
one ready heap (priority desc, then submission / re-queue order),
launches, drains worker messages and supervises the live workers.
Every job transition, each cancellation included, is one event of the
batch's :class:`~repro.service.telemetry.ServiceTelemetry` stream, the
only tally: the batch report (schema ``repro-batch/1``, rendered by
``repro jobs``) reads its ``counters`` off the stream's registry.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import multiprocessing as mp
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as mp_wait
from pathlib import Path

from repro.service.cache import ResultCache
from repro.service.jobs import BATCH_SCHEMA, JobRecord, JobSpec, JobState, job_key
from repro.service.telemetry import ServiceTelemetry, report_counters
from repro.service.worker import scratch_checkpoint, worker_main
from repro.util import require

__all__ = ["Scheduler", "render_report", "backoff_delay"]

#: Supervision poll interval (seconds): the latency floor for detecting
#: completions, deadline expiries, and dead workers.
_TICK = 0.05

#: Minimum seconds between Prometheus snapshot flushes during the loop.
_PROM_EVERY = 0.5

#: Consecutive worker losses that shed one pool slot.
_SHRINK_AFTER = 2


def derive_batch_id(jobs: list[JobSpec]) -> str:
    """Deterministic batch identity: hash of the sorted job keys.

    The same sweep resubmitted gets the same ``batch_id`` — batch
    identity is content identity, like job identity, so reruns of a
    batch correlate across service streams.
    """
    digest = hashlib.sha256(
        "\n".join(sorted(spec.key for spec in jobs)).encode()
    ).hexdigest()
    return "batch-" + digest[:12]


def backoff_delay(
    key: str, attempt: int, *, base: float = 0.05, cap: float = 2.0
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**attempt`` capped at ``cap``, scaled into ``[0.5, 1.0)``
    by a jitter seeded from ``(key, attempt)`` — retry storms decorrelate
    across jobs, yet a rerun of the same batch reproduces the same
    delays (determinism is a debugging feature everywhere in this repo).
    """
    rng = random.Random(f"{key}:{attempt}")
    raw = min(cap, base * (2.0**attempt))
    return raw * (0.5 + rng.random() / 2.0)


@dataclass
class _Live:
    """Supervision state of one running worker."""

    record: JobRecord
    process: mp.Process
    conn: object
    started: float
    last_beat: float
    finished: bool = False  #: terminal message received (EOF is then benign)
    beating: bool = False  #: first message received — heartbeat watchdog armed


@dataclass
class Scheduler:
    """Fault-tolerant batch scheduler (see module docstring).

    ``retries`` is the number of *re*-tries: a job gets at most
    ``retries + 1`` attempts.  ``max_failures=0`` disables the circuit
    breaker.  ``timeout`` / ``heartbeat_timeout`` of ``None`` disable
    the respective watchdog.  :attr:`telemetry` is the last batch's
    service stream.
    """

    workers: int = 2
    cache: ResultCache | str | Path | None = None
    workdir: str | Path | None = None
    timeout: float | None = None
    heartbeat_timeout: float | None = None
    retries: int = 2
    max_failures: int = 0
    checkpoint_every: int = 2
    progress: object = None  #: optional callable(str) for status lines
    obs_dir: str | Path | None = None  #: live service stream + per-job telemetry
    prom_dir: str | Path | None = None  #: Prometheus textfile snapshots
    telemetry: ServiceTelemetry = field(init=False, default=None)

    def __post_init__(self) -> None:
        require(self.workers >= 1, "workers must be >= 1")
        require(self.retries >= 0, "retries must be >= 0")
        require(self.checkpoint_every >= 1, "checkpoint_every must be >= 1")
        require(self.max_failures >= 0, "max_failures must be >= 0")
        if self.timeout is not None:
            require(self.timeout > 0, "timeout must be > 0 seconds")
        if self.heartbeat_timeout is not None:
            require(self.heartbeat_timeout > 0, "heartbeat_timeout must be > 0")
        if isinstance(self.cache, (str, Path)):
            self.cache = ResultCache(self.cache)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = mp.get_context()

    # ------------------------------------------------------------------
    def run(self, jobs: list[JobSpec]) -> dict:
        """Drain ``jobs`` to terminal states; returns the batch report."""
        require(len(jobs) > 0, "a batch needs at least one job")
        self._open(jobs)
        while self._live or self._ready or self._waiting:
            self._promote_due()
            self._launch_ready()
            self._flush_prom()
            if not self._live:
                if self._waiting:
                    pause = max(0.0, min(t for t, _ in self._waiting) - time.monotonic())
                    time.sleep(min(pause, _TICK) or 0.001)
                continue
            for conn in mp_wait(list(self._live), timeout=_TICK):
                self._drain(self._live[conn])
            self._supervise()
        return self._report()

    # -- batch state ---------------------------------------------------
    def _open(self, jobs: list[JobSpec]) -> None:
        """Set up one batch: workdir, records, ready heap and service stream."""
        self._scratch_workdir = self.workdir is None and self.cache is None
        if self.workdir is not None:
            self._workdir = Path(self.workdir)
        elif self.cache is not None:
            self._workdir = self.cache.root / "work"
        else:
            # no cache to anchor the documented <cache>/work default:
            # use a private temp dir, never the caller's cwd
            self._workdir = Path(tempfile.mkdtemp(prefix="repro-jobs-"))
        self._workdir.mkdir(parents=True, exist_ok=True)

        self._records = [  # tests inspect payloads post-run
            JobRecord(spec, job_key(spec, self.checkpoint_every)) for spec in jobs
        ]
        self._batch_id = derive_batch_id(jobs)
        self._obs_dir = Path(self.obs_dir) if self.obs_dir is not None else None
        tel = self.telemetry = ServiceTelemetry(
            jobs=len(self._records),
            workers=self.workers,
            batch_id=self._batch_id,
            params=self._params(),
        )
        if self._obs_dir is not None:
            self._obs_dir.mkdir(parents=True, exist_ok=True)
            tel.stream_to(self._obs_dir / "service.jsonl")
        self._last_prom = 0.0
        #: (-priority, seq, record): launch order is priority desc, then
        #: submission / re-queue order
        self._ready: list[tuple[int, int, JobRecord]] = []
        self._seq = itertools.count()
        for rec in self._records:
            self._enqueue(rec)
        self._waiting: list[tuple[float, JobRecord]] = []  #: (due time, record)
        self._live: dict[object, _Live] = {}
        self._pool_size = max(1, min(self.workers, len(self._records)))
        self._consecutive_losses = 0
        self._circuit_open = False
        self._t0 = time.monotonic()

    def _params(self) -> dict:
        """The supervision knobs the stream header and the batch report record."""
        names = ("timeout", "heartbeat_timeout", "retries", "max_failures", "checkpoint_every")
        return {name: getattr(self, name) for name in names}

    def _enqueue(self, rec: JobRecord) -> None:
        heapq.heappush(self._ready, (-rec.spec.priority, next(self._seq), rec))

    def _say(self, text: str) -> None:
        if self.progress is not None:
            self.progress(text)

    def _flush_prom(self, force: bool = False) -> None:
        if self.prom_dir is None:
            return
        now = time.monotonic()
        if not force and now - self._last_prom < _PROM_EVERY:
            return
        self._last_prom = now
        from repro.obs.prom import write_prom_snapshot

        write_prom_snapshot(
            Path(self.prom_dir),
            self.telemetry.registry,
            name="repro-batch.prom",
            labels={"batch": self._batch_id},
        )

    # -- the tick's steps ----------------------------------------------
    def _promote_due(self) -> None:
        """Re-queue the retries whose backoff elapsed, in retry order."""
        now = time.monotonic()
        due = [rec for t, rec in self._waiting if t <= now]
        self._waiting = [w for w in self._waiting if w[0] > now]
        for rec in due:
            rec.state = JobState.PENDING
            self._enqueue(rec)
        self.telemetry.set_queue_depth(len(self._ready))

    def _launch_ready(self) -> None:
        """Serve ready jobs from the cache or launch them, up to the pool size."""
        while not self._circuit_open and self._ready and len(self._live) < self._pool_size:
            rec = heapq.heappop(self._ready)[2]
            hit = self._cache_get(rec)
            if hit is not None:
                self._finish(rec, 0.0, hit, cached=True)
                continue
            self.telemetry.registry.counter("cache.misses").inc()
            self._launch(rec)

    def _cache_get(self, rec: JobRecord) -> dict | None:
        """Verified cache payload for ``rec``; each entry quarantined on the way is an event."""
        if self.cache is None:
            return None
        seen = len(self.cache.quarantined)
        hit = self.cache.get(rec.key)
        for path, reason in self.cache.quarantined[seen:]:
            self.telemetry.event("cache_quarantine", path=path, reason=reason)
            self._say(f"quarantined corrupt cache entry: {path}")
        return hit

    def _launch(self, rec: JobRecord) -> None:
        parent, child = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                child,
                rec.spec.to_dict(),
                str(self._workdir),
                self.checkpoint_every,
                rec.attempt,
                {"batch_id": self._batch_id, "job_id": rec.key, "attempt": rec.attempt},
                str(self._obs_dir) if self._obs_dir is not None else None,
            ),
            daemon=True,
        )
        proc.start()
        child.close()
        rec.state = JobState.RUNNING
        now = time.monotonic()
        self._live[parent] = _Live(rec, proc, parent, now, now)
        self.telemetry.event("job_launched", rec, attempt=rec.attempt)
        self._say(f"launch {rec.name} (attempt {rec.attempt + 1})")

    def _drain(self, entry: _Live) -> None:
        """Consume every message buffered on one worker's pipe."""
        conn = entry.conn
        while True:
            try:
                if not conn.poll():
                    return
                kind, body = conn.recv()
            except (EOFError, OSError):
                # pipe closed: normal after done/failed, a death
                # otherwise — the supervision pass settles it
                return
            if kind in ("started", "heartbeat"):
                entry.last_beat = time.monotonic()
                entry.beating = True
            if kind == "started":
                if body.get("iteration", 0) > 0:
                    entry.record.resumed_from = int(body["iteration"])
            elif kind == "heartbeat":
                self.telemetry.on_heartbeat(
                    entry.record,
                    body.get("iteration", -1),
                    total=body.get("total"),
                    imbalance=body.get("imbalance"),
                )
            elif kind == "done":
                entry.finished = True
                wall = time.monotonic() - entry.started
                self._finish(entry.record, wall, body["payload"], cached=False)
            elif kind == "failed":
                entry.finished = True
                err = body["error"]
                self._retry_or_fail(
                    entry.record,
                    f"{type(err).__name__}: {err}",
                    time.monotonic() - entry.started,
                )

    def _supervise(self) -> None:
        """Retire finished workers; settle deadlines, heartbeat silence and deaths."""
        now = time.monotonic()
        for conn, entry in list(self._live.items()):
            elapsed = now - entry.started
            if entry.finished:
                entry.process.join(5.0)
                del self._live[conn]
            elif self.timeout is not None and elapsed >= self.timeout:
                self._kill_and_retry(
                    entry,
                    elapsed,
                    "job_timeout",
                    f"JobTimeout: exceeded the {self.timeout:g}s deadline "
                    f"after {elapsed:.2f}s",
                    limit=self.timeout,
                    elapsed=round(elapsed, 6),
                )
            elif (
                self.heartbeat_timeout is not None
                and entry.beating  # armed at the first worker message:
                # construction/restore time is not heartbeat silence
                and now - entry.last_beat >= self.heartbeat_timeout
            ):
                silent = now - entry.last_beat
                self._kill_and_retry(
                    entry,
                    elapsed,
                    "heartbeat_lost",
                    f"hung worker: no heartbeat for {silent:.2f}s "
                    f"(budget {self.heartbeat_timeout:g}s)",
                    silent_for=round(silent, 6),
                )
            elif not entry.process.is_alive():
                # the exit may have raced the drain: final messages can
                # still sit in the pipe buffer — read them before
                # declaring the worker lost
                self._drain(entry)
                del self._live[conn]
                if entry.finished:
                    entry.process.join(5.0)
                else:
                    entry.conn.close()
                    self._worker_lost(entry)

    def _report(self) -> dict:
        """Close the stream and build the batch report from it."""
        if self._scratch_workdir:
            shutil.rmtree(self._workdir, ignore_errors=True)
        tel = self.telemetry
        tel.close_stream()
        self._flush_prom(force=True)
        return {
            "schema": BATCH_SCHEMA,
            "batch_id": self._batch_id,
            "params": {
                "workers": self.workers,
                "pool_size_final": self._pool_size,
                **self._params(),
                "cache": str(self.cache.root) if self.cache is not None else None,
            },
            "ok": all(rec.state == JobState.DONE for rec in self._records),
            "circuit_open": self._circuit_open,
            "wall": round(time.monotonic() - self._t0, 6),
            "counters": report_counters(tel.summary()),
            "jobs": [rec.to_dict() for rec in self._records],
        }

    # -- job transitions -----------------------------------------------
    def _finish(self, rec: JobRecord, wall: float, payload: dict, cached: bool) -> None:
        rec.state = JobState.DONE
        rec.cached = cached
        rec.payload = payload
        rec.wall += wall
        if not cached:
            self._consecutive_losses = 0
            if self.cache is not None:
                self.cache.put(rec.key, payload)
            ck = scratch_checkpoint(self._workdir, rec.key)
            if ck.exists():
                ck.unlink()
        self.telemetry.event("job_done", rec, wall=round(rec.wall, 6), cached=cached)
        self._flush_prom()
        self._say(f"done {rec.name}" + (" (cache)" if cached else ""))

    def _kill_and_retry(
        self, entry: _Live, elapsed: float, kind: str, reason: str, **fields
    ) -> None:
        """A watchdog fired: terminate (then kill) the worker, record ``kind``, retry the job."""
        proc = entry.process
        if proc.is_alive():
            proc.terminate()
            proc.join(1.0)
            if proc.is_alive():  # pragma: no cover - terminate suffices normally
                proc.kill()
                proc.join(5.0)
        entry.conn.close()
        del self._live[entry.conn]
        self.telemetry.event(kind, entry.record, **fields)
        self._retry_or_fail(entry.record, reason, elapsed)

    def _worker_lost(self, entry: _Live) -> None:
        reason = f"worker died (exitcode {entry.process.exitcode})"
        self._consecutive_losses += 1
        self.telemetry.event("worker_lost", entry.record, exitcode=entry.process.exitcode)
        if self._consecutive_losses >= _SHRINK_AFTER and self._pool_size > 1:
            self._pool_size -= 1
            self._consecutive_losses = 0
            self.telemetry.registry.gauge("pool.size").set(self._pool_size)
            self.telemetry.event(
                "pool_shrink",
                size=self._pool_size,
                reason=f"{_SHRINK_AFTER} consecutive worker losses",
            )
            self._say(f"pool shrunk to {self._pool_size} worker slot(s)")
        self._retry_or_fail(entry.record, reason, time.monotonic() - entry.started)

    def _retry_or_fail(self, rec: JobRecord, reason: str, wall: float) -> None:
        rec.wall += wall
        attempt = rec.attempt
        if attempt >= self.retries:
            rec.state = JobState.FAILED
            rec.error = reason
            self.telemetry.event("job_failed", rec, reason=reason)
            self._say(f"FAILED {rec.name}: {reason}")
            failures = int(self.telemetry.registry.counter("jobs.failed").value)
            if self.max_failures and not self._circuit_open and failures >= self.max_failures:
                self._open_circuit(failures)
            return
        if self._circuit_open:
            # the breaker tripped while this attempt was in flight;
            # a retry would never launch (launches are gated on the
            # closed circuit) and would spin the loop forever
            self._cancel(
                rec,
                reason,
                f"cancelled after {reason}: the batch circuit breaker "
                f"is open (max_failures={self.max_failures})",
            )
            self._say(f"cancelled {rec.name} (circuit open): {reason}")
            return
        delay = backoff_delay(rec.key, attempt)
        rec.retries.append({"attempt": attempt, "reason": reason, "delay": round(delay, 6)})
        rec.attempt = attempt + 1
        rec.state = JobState.WAITING
        self._waiting.append((time.monotonic() + delay, rec))
        # the upcoming attempt, as in schema /1
        self.telemetry.event(
            "job_retry", rec, attempt=rec.attempt, reason=reason, delay=round(delay, 6)
        )
        self._say(f"retry {rec.name} (attempt {rec.attempt + 1}) in {delay:.2f}s: {reason}")

    def _open_circuit(self, failures: int) -> None:
        """Trip the breaker: cancel every queued or backing-off job, in submission order."""
        self._circuit_open = True
        reason = f"the batch hit max_failures={self.max_failures}"
        idle = [r for r in self._records if r.state in (JobState.PENDING, JobState.WAITING)]
        self._ready.clear()
        self._waiting.clear()
        self.telemetry.event("circuit_open", failures=failures, cancelled=len(idle))
        for rec in idle:
            self._cancel(rec, reason, f"cancelled: {reason}")
        self._say(
            f"circuit breaker open after {failures} failures; "
            f"{len(idle)} job(s) cancelled"
        )

    def _cancel(self, rec: JobRecord, reason: str, error: str) -> None:
        rec.state = JobState.CANCELLED
        rec.error = error
        self.telemetry.event("job_cancelled", rec, reason=reason)


def render_report(report: dict, *, events: list[dict] | None = None) -> str:
    """Terminal rendering of a batch report (``repro jobs``).

    ``events`` (optional) is the batch's service stream — the records of
    the ``service.jsonl`` next to the report.  When given, the *attempts*
    and *cache* columns are sourced from the stream's
    :class:`~repro.obs.top.BatchView` fold (launch counts and
    ``job_done.cached`` flags) instead of the report snapshot, so the
    table reflects what actually happened on the wire.
    """
    from repro.obs.top import BatchView
    from repro.telemetry.report import format_table

    if report.get("schema") != BATCH_SCHEMA:
        raise ValueError(
            f"not a batch report (schema {report.get('schema')!r}, "
            f"expected {BATCH_SCHEMA!r})"
        )
    view = BatchView()
    view.apply_all(events or [])
    rows = []
    for job in report["jobs"]:
        state = job["state"]
        note = ""
        if job.get("resumed_from") is not None:
            note = f"resumed@{job['resumed_from']}"
        if job.get("error"):
            note = (note + " " if note else "") + job["error"][:40]
        attempts, cached = job["attempts"], job.get("cached", False)
        wire = view.jobs.get(job["name"])
        if wire is not None:
            attempts = wire["launches"] or attempts
            cached = wire["cached"] if wire["state"] == "done" else cached
        rows.append(
            [
                job["name"],
                state,
                attempts,
                len(job.get("retries", [])),
                "yes" if cached else "no",
                f"{job['wall']:.2f}",
                job["key"][:12],
                note,
            ]
        )
    c = report["counters"]
    title = f"batch report ({len(rows)} jobs, wall {report['wall']:.2f}s)"
    if report.get("batch_id"):
        title += f" — {report['batch_id']}"
    lines = [
        format_table(
            ["job", "state", "attempts", "retries", "cache", "wall (s)", "key", "notes"],
            rows,
            title=title,
        ),
        "",
        (
            f"completed {c['completed']}  failed {c['failed']}  "
            f"cancelled {c['cancelled']}  cache hits {c['cache_hits']}  "
            f"retries {c['retries']}  timeouts {c['timeouts']}  "
            f"hung {c['heartbeats_lost']}  worker losses {c['worker_losses']}  "
            f"quarantined {c['quarantined']}"
        ),
        "batch: OK" if report["ok"] else (
            "batch: FAILED (circuit breaker open)"
            if report["circuit_open"]
            else "batch: FAILED"
        ),
    ]
    return "\n".join(lines)
