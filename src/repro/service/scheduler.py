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
* **graceful degradation** — repeated worker deaths shrink the pool
  (never below one); a bounded queue keeps huge sweeps from
  materializing all supervision state at once; ``max_failures`` is a
  circuit breaker that stops launching after N distinct job failures
  and cancels the remainder, reporting everything in the batch report.
  A live job that fails retryably *after* the breaker opened is
  cancelled too (never rescheduled — nothing launches once the circuit
  is open), so the batch always terminates.

The returned batch report (schema ``repro-batch/1``) records every
job's terminal state, attempts, retries (with reasons and delays),
cache provenance, and final-state summary; ``repro jobs`` renders it.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import random
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as mp_wait
from pathlib import Path

from repro.service.cache import ResultCache
from repro.service.jobs import BATCH_SCHEMA, JobRecord, JobSpec, JobState
from repro.service.queue import JobQueue
from repro.service.telemetry import ServiceTelemetry
from repro.service.worker import scratch_checkpoint, worker_main
from repro.util import require

__all__ = ["Scheduler", "run_batch", "render_report", "backoff_delay"]

#: Supervision poll interval (seconds): the latency floor for detecting
#: completions, deadline expiries, and dead workers.
_TICK = 0.05

#: Minimum seconds between Prometheus snapshot flushes during the loop.
_PROM_EVERY = 0.5


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
class _Counters:
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    cache_hits: int = 0
    retries: int = 0
    timeouts: int = 0
    heartbeats_lost: int = 0
    worker_losses: int = 0
    quarantined: int = 0
    pool_shrinks: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class Scheduler:
    """Fault-tolerant batch scheduler (see module docstring).

    ``retries`` is the number of *re*-tries: a job gets at most
    ``retries + 1`` attempts.  ``max_failures=0`` disables the circuit
    breaker.  ``timeout`` / ``heartbeat_timeout`` of ``None`` disable
    the respective watchdog.
    """

    workers: int = 2
    cache: ResultCache | str | Path | None = None
    workdir: str | Path | None = None
    timeout: float | None = None
    heartbeat_timeout: float | None = None
    retries: int = 2
    max_failures: int = 0
    checkpoint_every: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    queue_maxsize: int | None = None
    shrink_after: int = 2  #: consecutive worker losses that shed one slot
    progress: object = None  #: optional callable(str) for status lines
    batch_id: str | None = None  #: override the content-derived batch id
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
        workdir = Path(self.workdir) if self.workdir is not None else None
        scratch_workdir = False
        if workdir is None:
            if self.cache is not None:
                workdir = self.cache.root / "work"
            else:
                # no cache to anchor the documented <cache>/work default:
                # use a private temp dir, never the caller's cwd
                workdir = Path(tempfile.mkdtemp(prefix="repro-jobs-"))
                scratch_workdir = True
        workdir.mkdir(parents=True, exist_ok=True)

        records = [JobRecord(spec=spec) for spec in jobs]
        batch_id = self.batch_id or derive_batch_id(jobs)
        obs_dir = Path(self.obs_dir) if self.obs_dir is not None else None
        prom_dir = Path(self.prom_dir) if self.prom_dir is not None else None
        tel = self.telemetry = ServiceTelemetry(
            jobs=len(records),
            workers=self.workers,
            batch_id=batch_id,
            params={
                "timeout": self.timeout,
                "heartbeat_timeout": self.heartbeat_timeout,
                "retries": self.retries,
                "max_failures": self.max_failures,
                "checkpoint_every": self.checkpoint_every,
            },
        )
        if obs_dir is not None:
            obs_dir.mkdir(parents=True, exist_ok=True)
            tel.stream_to(obs_dir / "service.jsonl")
        last_prom = 0.0

        def flush_prom(force: bool = False) -> None:
            nonlocal last_prom
            if prom_dir is None:
                return
            now = time.monotonic()
            if not force and now - last_prom < _PROM_EVERY:
                return
            last_prom = now
            from repro.obs.prom import write_prom_snapshot

            write_prom_snapshot(
                prom_dir,
                tel.registry,
                name="repro-batch.prom",
                labels={"batch": batch_id},
            )

        counters = _Counters()
        queue = JobQueue(maxsize=self.queue_maxsize)
        backlog: deque[JobRecord] = deque(records)
        waiting: list[tuple[float, JobRecord]] = []
        live: dict[object, _Live] = {}
        pool_size = max(1, min(self.workers, len(records)))
        consecutive_losses = 0
        circuit_open = False
        t_batch0 = time.monotonic()

        def say(text: str) -> None:
            if self.progress is not None:
                self.progress(text)

        def finish_done(rec: JobRecord, wall: float, payload: dict, cached: bool) -> None:
            nonlocal consecutive_losses
            rec.state = JobState.DONE
            rec.cached = cached
            rec.payload = payload
            rec.wall += wall
            counters.completed += 1
            if cached:
                counters.cache_hits += 1
                tel.registry.counter("cache.hits").inc()
            else:
                consecutive_losses = 0
                if self.cache is not None:
                    self.cache.put(rec.key, payload)
                ck = scratch_checkpoint(workdir, rec.key)
                if ck.exists():
                    ck.unlink()
            tel.event("job_done", rec, wall=round(rec.wall, 6), cached=cached)
            flush_prom()
            say(f"done {rec.name}" + (" (cache)" if cached else ""))

        def note_quarantines() -> None:
            if self.cache is None:
                return
            while counters.quarantined < len(self.cache.quarantined):
                path, reason = self.cache.quarantined[counters.quarantined]
                counters.quarantined += 1
                tel.event("cache_quarantine", path=path, reason=reason)
                say(f"quarantined corrupt cache entry: {path}")

        def open_circuit() -> None:
            nonlocal circuit_open
            if circuit_open:
                return
            circuit_open = True
            cancelled = 0
            for rec in list(backlog) + [r for _, r in waiting]:
                rec.state = JobState.CANCELLED
                rec.error = (
                    f"cancelled: the batch hit max_failures={self.max_failures}"
                )
                cancelled += 1
            while queue:
                rec = queue.pop()
                rec.state = JobState.CANCELLED
                rec.error = (
                    f"cancelled: the batch hit max_failures={self.max_failures}"
                )
                cancelled += 1
            backlog.clear()
            waiting.clear()
            counters.cancelled += cancelled
            tel.event("circuit_open", failures=counters.failed, cancelled=cancelled)
            say(
                f"circuit breaker open after {counters.failed} failures; "
                f"{cancelled} job(s) cancelled"
            )

        def retry_or_fail(rec: JobRecord, reason: str, wall: float) -> None:
            rec.wall += wall
            attempt = rec.attempt
            if attempt >= self.retries:
                rec.state = JobState.FAILED
                rec.error = reason
                counters.failed += 1
                tel.event("job_failed", rec, reason=reason)
                say(f"FAILED {rec.name}: {reason}")
                if self.max_failures and counters.failed >= self.max_failures:
                    open_circuit()
                return
            if circuit_open:
                # the breaker tripped while this attempt was in flight;
                # a retry would never launch (launches are gated on the
                # closed circuit) and would spin the loop forever
                rec.state = JobState.CANCELLED
                rec.error = (
                    f"cancelled after {reason}: the batch circuit breaker "
                    f"is open (max_failures={self.max_failures})"
                )
                counters.cancelled += 1
                tel.event("job_cancelled", rec, reason=reason)
                say(f"cancelled {rec.name} (circuit open): {reason}")
                return
            delay = backoff_delay(
                rec.key, attempt, base=self.backoff_base, cap=self.backoff_cap
            )
            rec.retries.append(
                {"attempt": attempt, "reason": reason, "delay": round(delay, 6)}
            )
            rec.attempt = attempt + 1
            rec.state = JobState.WAITING
            waiting.append((time.monotonic() + delay, rec))
            counters.retries += 1
            # the upcoming attempt, as in schema /1
            tel.event("job_retry", rec, attempt=rec.attempt, reason=reason, delay=round(delay, 6))
            say(f"retry {rec.name} (attempt {rec.attempt + 1}) in {delay:.2f}s: {reason}")

        def kill_entry(entry: _Live) -> None:
            proc = entry.process
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
                if proc.is_alive():  # pragma: no cover - terminate suffices normally
                    proc.kill()
                    proc.join(5.0)
            entry.conn.close()

        def worker_lost(entry: _Live, reason: str) -> None:
            nonlocal pool_size, consecutive_losses
            counters.worker_losses += 1
            consecutive_losses += 1
            tel.event("worker_lost", entry.record, exitcode=entry.process.exitcode)
            if consecutive_losses >= self.shrink_after and pool_size > 1:
                pool_size -= 1
                consecutive_losses = 0
                counters.pool_shrinks += 1
                tel.registry.gauge("pool.size").set(pool_size)
                tel.event(
                    "pool_shrink",
                    size=pool_size,
                    reason=f"{self.shrink_after} consecutive worker losses",
                )
                say(f"pool shrunk to {pool_size} worker slot(s)")
            retry_or_fail(
                entry.record, reason, time.monotonic() - entry.started
            )

        def launch(rec: JobRecord) -> None:
            parent, child = self._ctx.Pipe(duplex=False)
            proc = self._ctx.Process(
                target=worker_main,
                args=(
                    child,
                    rec.spec.to_dict(),
                    str(workdir),
                    self.checkpoint_every,
                    rec.attempt,
                    {
                        "batch_id": batch_id,
                        "job_id": rec.key,
                        "attempt": rec.attempt,
                    },
                    str(obs_dir) if obs_dir is not None else None,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            rec.state = JobState.RUNNING
            now = time.monotonic()
            live[parent] = _Live(rec, proc, parent, now, now)
            tel.event("job_launched", rec, attempt=rec.attempt)
            say(f"launch {rec.name} (attempt {rec.attempt + 1})")

        # -- main supervision loop --------------------------------------
        while live or backlog or waiting or queue:
            now = time.monotonic()
            # promote retries whose backoff elapsed
            due = [w for w in waiting if w[0] <= now]
            if due:
                waiting[:] = [w for w in waiting if w[0] > now]
                for _, rec in due:
                    rec.state = JobState.PENDING
                    backlog.append(rec)
            while backlog and not queue.full:
                queue.push(backlog.popleft())
            tel.set_queue_depth(len(queue) + len(backlog))

            # launch up to the (possibly shrunk) pool size
            while not circuit_open and queue and len(live) < pool_size:
                rec = queue.pop()
                hit = self.cache.get(rec.key) if self.cache is not None else None
                note_quarantines()
                if hit is not None:
                    finish_done(rec, 0.0, hit, cached=True)
                    continue
                tel.registry.counter("cache.misses").inc()
                launch(rec)
            flush_prom()

            if not live:
                if waiting:
                    pause = max(0.0, min(t for t, _ in waiting) - time.monotonic())
                    time.sleep(min(pause, _TICK) or 0.001)
                continue

            def drain(entry: _Live) -> None:
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
                    if kind == "started":
                        entry.last_beat = time.monotonic()
                        entry.beating = True
                        if body.get("iteration", 0) > 0:
                            entry.record.resumed_from = int(body["iteration"])
                    elif kind == "heartbeat":
                        entry.last_beat = time.monotonic()
                        entry.beating = True
                        tel.on_heartbeat(
                            entry.record,
                            body.get("iteration", -1),
                            total=body.get("total"),
                            imbalance=body.get("imbalance"),
                        )
                    elif kind == "done":
                        entry.finished = True
                        finish_done(
                            entry.record,
                            time.monotonic() - entry.started,
                            body["payload"],
                            cached=False,
                        )
                    elif kind == "failed":
                        entry.finished = True
                        err = body["error"]
                        retry_or_fail(
                            entry.record,
                            f"{type(err).__name__}: {err}",
                            time.monotonic() - entry.started,
                        )

            # drain messages from whoever has something to say
            for conn in mp_wait(list(live), timeout=_TICK):
                drain(live[conn])

            # supervision pass: deadlines, heartbeats, silent deaths
            now = time.monotonic()
            for conn, entry in list(live.items()):
                rec = entry.record
                if entry.finished:
                    entry.process.join(5.0)
                    del live[conn]
                    continue
                if self.timeout is not None and now - entry.started >= self.timeout:
                    kill_entry(entry)
                    del live[conn]
                    counters.timeouts += 1
                    elapsed = now - entry.started
                    tel.event("job_timeout", rec, limit=self.timeout, elapsed=round(elapsed, 6))
                    retry_or_fail(
                        rec,
                        f"JobTimeout: exceeded the {self.timeout:g}s deadline "
                        f"after {elapsed:.2f}s",
                        elapsed,
                    )
                    continue
                if (
                    self.heartbeat_timeout is not None
                    and entry.beating  # armed at the first worker message:
                    # construction/restore time is not heartbeat silence
                    and now - entry.last_beat >= self.heartbeat_timeout
                ):
                    silent = now - entry.last_beat
                    kill_entry(entry)
                    del live[conn]
                    counters.heartbeats_lost += 1
                    tel.event("heartbeat_lost", rec, silent_for=round(silent, 6))
                    retry_or_fail(
                        rec,
                        f"hung worker: no heartbeat for {silent:.2f}s "
                        f"(budget {self.heartbeat_timeout:g}s)",
                        now - entry.started,
                    )
                    continue
                if not entry.process.is_alive():
                    # the exit may have raced the drain above: final
                    # messages can still sit in the pipe buffer — read
                    # them before declaring the worker lost
                    drain(entry)
                    if entry.finished:
                        entry.process.join(5.0)
                        del live[conn]
                        continue
                    ec = entry.process.exitcode
                    entry.conn.close()
                    del live[conn]
                    worker_lost(entry, f"worker died (exitcode {ec})")

        # -- report -----------------------------------------------------
        if scratch_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        tel.close_stream()
        flush_prom(force=True)
        ok = all(rec.state == JobState.DONE for rec in records)
        report = {
            "schema": BATCH_SCHEMA,
            "batch_id": batch_id,
            "params": {
                "workers": self.workers,
                "pool_size_final": pool_size,
                "timeout": self.timeout,
                "heartbeat_timeout": self.heartbeat_timeout,
                "retries": self.retries,
                "max_failures": self.max_failures,
                "checkpoint_every": self.checkpoint_every,
                "cache": str(self.cache.root) if self.cache is not None else None,
            },
            "ok": ok,
            "circuit_open": circuit_open,
            "wall": round(time.monotonic() - t_batch0, 6),
            "counters": counters.to_dict(),
            "jobs": [rec.to_dict() for rec in records],
        }
        self._records = records  # tests inspect payloads post-run
        return report


def run_batch(jobs: list[JobSpec], **kwargs) -> dict:
    """One-shot convenience: ``Scheduler(**kwargs).run(jobs)``."""
    return Scheduler(**kwargs).run(jobs)


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
