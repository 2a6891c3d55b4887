"""Live batch view: tail a service stream and render it in place.

``repro top STREAM`` follows the live JSONL stream a scheduler writes
when given an obs directory (:meth:`ServiceTelemetry.stream_to`) and
renders a small refreshing dashboard: one row per job with state,
attempt, iteration progress and last-known load imbalance, plus batch
totals (pool size, queue depth, retries, cache hits, circuit state).

The stream is read with :func:`~repro.telemetry.stream.read_jsonl` in
its partial mode: a partially flushed last line is left unconsumed
until the writer completes it, so tailing never crashes mid-batch,
while a malformed complete line raises ``TelemetrySchemaError``.  The
loop exits cleanly when the closing ``summary`` record appears — a
finished batch tears the dashboard down by itself.

:class:`BatchView` is the one fold of a service stream's job events:
the dashboard, the rollup's job table (:mod:`repro.obs.batch`) and the
stream-sourced columns of ``repro jobs`` all read it.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.telemetry.stream import read_jsonl

__all__ = ["BatchView", "render_top", "top_loop"]

#: job states rendered as "active" (spinner-worthy) in the dashboard
_ACTIVE = ("running", "retrying", "queued")

#: display order: active jobs first, then terminal ones
_STATE_ORDER = {
    "running": 0,
    "retrying": 1,
    "queued": 2,
    "done": 3,
    "failed": 4,
    "cancelled": 5,
}


class BatchView:
    """Mutable fold of a service stream into a dashboard state."""

    def __init__(self) -> None:
        self.header: dict | None = None
        self.summary: dict | None = None
        self.jobs: dict[str, dict] = {}
        self.queue_depth = 0
        self.pool_size: int | None = None
        self.circuit_open = False
        self.retries = 0
        self.cache_hits = 0
        self.last_t = 0.0

    @property
    def finished(self) -> bool:
        """True once the closing summary record has been seen."""
        return self.summary is not None

    @property
    def batch_id(self) -> str | None:
        return (self.header or {}).get("batch_id")

    def _job(self, name: str) -> dict:
        return self.jobs.setdefault(
            name,
            {
                "state": "queued",
                "job_id": None,
                "attempt": 0,  # the highest attempt seen
                "launches": 0,
                "retries": 0,
                "iteration": None,
                "total": None,
                "imbalance": None,
                "rate": None,  # iterations per stream-second
                "_rate_mark": None,  # (t, iteration) of last progress
                "wall": None,
                "cached": False,
            },
        )

    def apply(self, record: dict) -> None:
        """Fold one stream record into the view."""
        kind = record.get("type")
        if kind == "header":
            self.header = record
            return
        if kind == "summary":
            self.summary = record
            return
        if kind != "event":
            return
        t = float(record.get("t", self.last_t))
        self.last_t = max(self.last_t, t)
        self.queue_depth = int(record.get("queue_depth", self.queue_depth))
        name = record.get("kind")
        job = record.get("job")
        row = self._job(job) if isinstance(job, str) else None
        if row is not None and record.get("job_id") is not None:
            row["job_id"] = record["job_id"]
        if row is not None and record.get("attempt") is not None:
            row["attempt"] = max(row["attempt"], int(record["attempt"]))
        if name == "job_launched" and row is not None:
            row["state"] = "running"
            row["launches"] += 1
            row["_rate_mark"] = None
        elif name == "job_progress" and row is not None:
            row["state"] = "running"
            row["iteration"] = record.get("iteration")
            row["total"] = record.get("total", row["total"])
            if record.get("imbalance") is not None:
                row["imbalance"] = record["imbalance"]
            mark = row["_rate_mark"]
            if mark is not None and t > mark[0]:
                row["rate"] = (record.get("iteration", 0) - mark[1]) / (t - mark[0])
            row["_rate_mark"] = (t, record.get("iteration", 0))
        elif name == "job_done" and row is not None:
            row["state"] = "done"
            row["wall"] = record.get("wall")
            row["cached"] = bool(record.get("cached"))
        elif name == "job_retry" and row is not None:
            row["state"] = "retrying"
            row["retries"] += 1
            self.retries += 1
        elif name == "job_failed" and row is not None:
            row["state"] = "failed"
        elif name == "job_cancelled" and row is not None:
            row["state"] = "cancelled"
        elif name in ("job_timeout", "heartbeat_lost", "worker_lost") and row is not None:
            row["state"] = "retrying"
        elif name == "pool_shrink":
            self.pool_size = int(record.get("size", 0))
        elif name == "circuit_open":
            self.circuit_open = True
        if name == "job_done" and record.get("cached"):
            self.cache_hits += 1

    def apply_all(self, records: list[dict]) -> None:
        for record in records:
            self.apply(record)


def _progress_cell(row: dict, width: int = 18) -> str:
    it, total = row["iteration"], row["total"]
    if it is None:
        return "-".center(width)
    if not total:
        return f"it {it}".center(width)
    frac = min(max(it / total, 0.0), 1.0)
    filled = int(round(frac * (width - 8)))
    bar = "#" * filled + "." * ((width - 8) - filled)
    return f"[{bar}] {it}/{total}"


def render_top(view: BatchView) -> str:
    """Render the current batch state as a dashboard string."""
    out: list[str] = []
    head = view.header or {}
    title = "repro top"
    if view.batch_id:
        title += f" — {view.batch_id}"
    out.append(title)
    states = [row["state"] for row in view.jobs.values()]
    running = sum(1 for s in states if s in _ACTIVE)
    done = sum(1 for s in states if s == "done")
    failed = sum(1 for s in states if s in ("failed", "cancelled"))
    pool = view.pool_size if view.pool_size is not None else head.get("workers", "?")
    out.append(
        f"jobs {head.get('jobs', len(view.jobs))}: {running} active, {done} done, "
        f"{failed} failed   queue {view.queue_depth}   pool {pool}"
        + ("   CIRCUIT OPEN" if view.circuit_open else "")
    )
    out.append(
        f"retries {view.retries}   cache hits {view.cache_hits}   "
        f"t +{view.last_t:.1f}s"
    )
    out.append("")
    header = (
        f"{'job':<22s} {'state':<9s} {'att':>3s} {'progress':<26s} "
        f"{'it/s':>7s} {'imbal':>6s}"
    )
    out.append(header)
    out.append("-" * len(header))
    rows = sorted(
        view.jobs.items(),
        key=lambda kv: (_STATE_ORDER.get(kv[1]["state"], 9), kv[0]),
    )
    for name, row in rows:
        rate = f"{row['rate']:.1f}" if row["rate"] else "-"
        imb = f"{row['imbalance']:.2f}" if row["imbalance"] is not None else "-"
        cell = _progress_cell(row, width=18)
        if row["state"] == "done":
            wall = f"{row['wall']:.2f}s" if row["wall"] is not None else ""
            cell = ("cached " if row["cached"] else "done ") + wall
        out.append(
            f"{name:<22.22s} {row['state']:<9s} {row['attempt']:>3d} "
            f"{cell:<26.26s} {rate:>7s} {imb:>6s}"
        )
    if view.finished:
        out.append("")
        out.append("batch complete")
    return "\n".join(out)


def top_loop(
    path: str | Path,
    *,
    interval: float = 0.5,
    once: bool = False,
    timeout: float | None = None,
    out=None,
) -> BatchView:
    """Tail ``path`` and render the dashboard until the batch finishes.

    Waits for the stream file to appear (the scheduler creates it at
    batch start), refreshes in place every ``interval`` seconds, and
    returns the final :class:`BatchView` when the summary record lands.
    ``once=True`` renders the current state a single time and returns —
    the non-interactive mode CI smoke-tests use.  ``timeout`` bounds the
    total wait (seconds); ``None`` waits indefinitely.
    """
    out = sys.stdout if out is None else out
    path = Path(path)
    view = BatchView()
    offset = 0
    deadline = None if timeout is None else time.monotonic() + timeout
    interactive = not once and out.isatty() if hasattr(out, "isatty") else False
    while True:
        if path.exists():
            records, offset = read_jsonl(path, offset=offset, partial=True)
            view.apply_all(records)
            frame = render_top(view)
            if interactive:
                # clear + home, then the frame: flicker-free enough for a
                # dashboard without pulling in curses
                out.write("\x1b[H\x1b[2J" + frame + "\n")
            else:
                out.write(frame + "\n")
            out.flush()
            if view.finished or once:
                return view
        elif once:
            out.write(f"(waiting for {path} — no stream yet)\n")
            out.flush()
            return view
        if deadline is not None and time.monotonic() >= deadline:
            return view
        time.sleep(interval)
