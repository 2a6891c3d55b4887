"""The run's phase recorder, on both clocks (Chrome-trace export).

:class:`SpanTracer` is the one observer hook on the phase path
(``vm.tracer``).  ``vm.phase`` hands it one row per phase on exit: the
per-rank *virtual* clocks and the *host* ``perf_counter`` at entry and
exit; ``vm.section`` adds a host-only row per kernel.  Telemetry reads
the virtual columns as :class:`Span` s, and
:class:`~repro.obs.profile.PhaseProfiler` folds the host columns into
flamegraph stacks; each switches on the columns it reads.  Spans are
measured on the virtual clocks, so a trace is fully deterministic — two
runs of the same configuration produce byte-identical trace files.

The export format is the Chrome Trace Event JSON (the ``traceEvents``
array form), which Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` both load directly:

* each rank maps to one thread lane (``tid = rank``) in process 0;
* phase intervals are complete events (``"ph": "X"``) with microsecond
  timestamps (virtual seconds × 1e6) and ``args`` carrying the
  iteration number;
* one-off occurrences (checkpoints, rank failures, recoveries) are
  instant events (``"ph": "i"``), read off the metrics stream's events;
* per-iteration scalars (load imbalance, particle counts) are counter
  events (``"ph": "C"``) charted on their own tracks, read off the
  stream's iteration records;
* metadata events (``"ph": "M"``) name the process and the rank lanes.

Nothing here charges the virtual clocks: attaching a tracer never
changes ``vm.elapsed()``, ``vm.ops``, or any result quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

__all__ = ["Span", "SpanTracer", "TRACE_SCHEMA"]

#: Schema marker embedded in exported traces (``otherData.schema``).
TRACE_SCHEMA = "repro-trace/1"


@dataclass
class Span:
    """One (iteration, phase, rank) interval on the virtual clocks."""

    name: str  #: phase label (scatter / field / gather / push / ...)
    rank: int
    iteration: int
    t0: float  #: virtual seconds at phase entry (this rank's clock)
    t1: float  #: virtual seconds at phase exit
    depth: int = 1  #: phase-stack depth (1 = outermost)

    @property
    def duration(self) -> float:
        """Span length in virtual seconds."""
        return self.t1 - self.t0


class SpanTracer:
    """Collects a run's phase rows and rank-count history.

    The tracer is attached to a machine as ``vm.tracer``; the machine's
    ``phase`` and ``section`` context managers feed it via
    :meth:`record_phase` and :meth:`record_section`.  The simulation
    driver advances :attr:`iteration` once per step so every row is
    tagged with the iteration it belongs to.  Instant markers and
    counter tracks are not kept here: :meth:`to_chrome` derives them from
    the run's metrics stream.
    """

    def __init__(self) -> None:
        #: one (name, iteration, depth, entry clocks, exit clocks, host entry,
        #: host exit) row per closed phase or kernel section, children before
        #: their parent; a column the tracer does not keep is ``None``
        self.rows: list[tuple] = []
        self.virtual = False  #: keep per-rank virtual clocks (telemetry's spans)
        self.host = False  #: keep host times and kernel sections (the profile)
        self.iteration = -1  #: -1 = before the first simulation iteration
        #: rank-count history: list of (iteration, p) entries; recovery
        #: shrink appends so lane metadata can mark dead ranks.
        self.rank_history: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_iteration(self, iteration: int) -> None:
        """Tag subsequently recorded rows with ``iteration``."""
        self.iteration = int(iteration)

    def record_phase(
        self, name: str, t_start: np.ndarray | None, t_end: np.ndarray, *, depth: int = 1,
        host: float | None = None,
    ) -> None:  # fmt: skip
        """Record one phase from per-rank entry/exit clocks and its host entry time.

        O(1) Python work per phase whatever the rank count (this runs
        inside every ``vm.phase`` of an observed step): the entry clocks are
        kept as the caller copied them (``None``: not kept), the exit clocks
        are copied, and the host exit time is read if ``host`` is given.
        """
        h1 = None if host is None else perf_counter()
        end = None if t_start is None else t_end.copy()
        self.rows.append((name, self.iteration, depth, t_start, end, host, h1))

    def record_section(self, name: str, depth: int, host: float) -> None:
        """Record one kernel section: a host-only row entered at ``host``."""
        self.rows.append((name, self.iteration, depth, None, None, host, perf_counter()))

    @property
    def spans(self) -> list[Span]:
        """Every recorded (iteration, phase, rank) interval, in order.

        Ranks whose clock did not advance inside a phase are skipped —
        they did not participate, and zero-width slices only clutter the
        timeline.  Host-only rows have no spans.
        """
        return [
            Span(name, rank, iteration, t0, t1, depth)
            for name, iteration, depth, starts, ends, _, _ in self.rows
            if starts is not None
            for rank, (t0, t1) in enumerate(zip(starts.tolist(), ends.tolist()))
            if t1 > t0
        ]

    def note_ranks(self, p: int) -> None:
        """Record that the machine has ``p`` live ranks from now on."""
        self.rank_history.append((self.iteration, int(p)))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome(self, records: list[dict] = (), correlation: dict | None = None) -> dict:
        """Export as a Chrome Trace Event / Perfetto JSON object.

        ``records`` is the body of the run's metrics stream: each event
        with a virtual time ``t`` becomes an instant marker, each iteration
        record one sample of the "load imbalance" and "particles" counter
        tracks.  ``correlation`` (the batch identity) goes to
        ``otherData``.
        """
        spans = self.spans
        max_rank = max([s.rank for s in spans] + [p - 1 for _, p in self.rank_history], default=0)
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro virtual machine"},
            }
        ]
        for rank in range(max_rank + 1):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": rank,
                    "args": {"name": f"rank {rank}"},
                }
            )
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "phase",
                    "ph": "X",
                    "pid": 0,
                    "tid": span.rank,
                    "ts": span.t0 * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {"iteration": span.iteration, "depth": span.depth},
                }
            )
        for rec in records:
            if rec["type"] == "event" and "t" in rec:
                events.append(
                    {
                        "name": rec["kind"],
                        "cat": "event",
                        "ph": "i",
                        "s": "g",  # global scope: full-height marker line
                        "pid": 0,
                        "tid": 0,
                        "ts": rec["t"] * 1e6,
                        "args": {k: v for k, v in rec.items() if k not in ("type", "kind", "t")},
                    }
                )
        for rec in records:
            if rec["type"] == "iteration":
                ts = rec["t_end"] * 1e6
                most = float(max(rec["particles_per_rank"], default=0))
                for name, values in (
                    ("load imbalance", {"max/mean": float(rec["imbalance"])}),
                    ("particles", {"max_per_rank": most}),
                ):
                    events.append(
                        {"name": name, "cat": "metric", "ph": "C", "pid": 0, "tid": 0,
                         "ts": ts, "args": values}
                    )
        other = {
            "schema": TRACE_SCHEMA,
            "clock": "virtual",
            "rank_history": [list(entry) for entry in self.rank_history],
        }
        if correlation is not None:
            other["correlation"] = dict(correlation)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def __repr__(self) -> str:
        return f"SpanTracer(rows={len(self.rows)}, ranks={self.rank_history})"
