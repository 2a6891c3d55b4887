"""Deterministic kernel-level profiling of the pooled-engine hot path.

:class:`PhaseProfiler` records nothing itself: it folds the host columns
of the run's one phase recorder, :class:`~repro.telemetry.spans.SpanTracer`
(``vm.tracer``), which holds a row per phase and, through ``vm.section``,
one per kernel (deposition, rank-row reduction, the ghost merge, gather +
push, migration partitioning).  The shard threads of
:mod:`repro.parallel_exec` time each task and the backend hands the
totals to :meth:`PhaseProfiler.merge_worker_samples`, so attribution
reaches inside the threads too.

The profiler measures **host** wall time only.  Nothing reads or
charges the virtual clocks for it, so results, ``vm.elapsed()`` and
``vm.ops`` are bit-identical with the profiler on or off; with it off
(the ``None`` default everywhere) the only residue is one dormant branch
per hook site.  Timings use :func:`time.perf_counter` and are therefore
machine-dependent — the *shape* of the profile is deterministic (same
sections, same counts for a given config), the durations are not.

Export is the collapsed-stack ("folded") format flamegraph tooling
consumes: one ``frame;frame;... value`` line per unique stack, with the
value in integer microseconds.  :meth:`PhaseProfiler.export_folded`
writes one file per root phase plus a combined ``profile.folded``.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.spans import SpanTracer
from repro.util.atomic_io import atomic_write_text

__all__ = ["PhaseProfiler"]

#: sub-frame under which the shard threads' task timings are filed
WORKER_FRAME = "workers"
#: tracer rows (~9 an iteration) past which :meth:`PhaseProfiler.fold_rows` folds them
FOLD_ROWS = 1024


class PhaseProfiler:
    """``stack -> (count, host seconds)`` samples, folded from a tracer's rows.

    The stack is a tuple of frame names rooted at the virtual machine's
    phase (``("scatter", "deposit")``, ``("workers", "gather_push")``,
    ...).  ``tracer`` is the run's recorder (a new host-only one if
    ``None``); the profiler switches its host columns on and folds only
    the rows written from then on.
    """

    def __init__(self, tracer: SpanTracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.tracer.host = True
        self._first_row = len(self.tracer.rows)
        self._folded_rows: dict[tuple[str, ...], list] = {}  # rows already folded
        self._workers: dict[tuple[str, ...], list] = {}

    def fold_rows(self) -> None:
        """Fold the rows written so far into the totals once they pass
        :data:`FOLD_ROWS`, and drop them unless telemetry reads them too
        (``tracer.virtual``): a profiled run's memory stays bounded.

        Call between iterations, where no frame is open: every row's
        parent is then among the rows folded with it.
        """
        rows = self.tracer.rows
        if len(rows) - self._first_row < FOLD_ROWS:
            return
        _fold(rows[self._first_row :], self._folded_rows)
        if self.tracer.virtual:
            self._first_row = len(rows)
        else:
            rows.clear()
            self._first_row = 0

    def merge_worker_samples(self, samples: dict) -> None:
        """Fold shard-thread task totals in as ``workers/<phase>`` frames.

        ``samples`` maps phase name to ``[count, seconds]`` as drained
        from :meth:`repro.parallel_exec.FlatBackend.drain_profile`.
        """
        for handler, (count, wall) in sorted(samples.items()):
            cell = self._workers.setdefault((WORKER_FRAME, str(handler)), [0, 0.0])
            cell[0] += int(count)
            cell[1] += float(wall)

    @property
    def samples(self) -> dict[tuple[str, ...], list]:
        """``stack -> [count, host seconds]`` over the rows since enabling
        (those :meth:`fold_rows` folded included), plus the merged worker
        totals."""
        out = {stack: list(cell) for stack, cell in self._folded_rows.items()}
        _fold(self.tracer.rows[self._first_row :], out)
        for stack, (count, wall) in self._workers.items():
            cell = out.setdefault(stack, [0, 0.0])
            cell[0] += count
            cell[1] += wall
        return out

    # -- views ----------------------------------------------------------
    def phase_totals(self) -> dict[str, float]:
        """Root-frame name -> accumulated host seconds."""
        return {stack[0]: wall for stack, (_, wall) in self.samples.items() if len(stack) == 1}

    def folded_lines(self) -> list[str]:
        """Collapsed-stack lines (``a;b value_us``), sorted by stack.

        To keep the flamegraph well-formed, each frame's value is its
        *self* time: accumulated wall minus the wall of its direct
        children, floored at zero (children are timed inside the parent,
        so nested time would otherwise be counted twice).
        """
        return [line for _, line in self._folded()]

    def _folded(self) -> list[tuple[str, str]]:
        """``(root frame, folded line)`` per stack, sorted by stack."""
        samples = self.samples
        child_wall: dict[tuple[str, ...], float] = {}
        for stack, (_, wall) in samples.items():
            if len(stack) > 1:
                parent = stack[:-1]
                child_wall[parent] = child_wall.get(parent, 0.0) + wall
        folded = []
        for stack, (_, wall) in sorted(samples.items()):
            self_wall = max(0.0, wall - child_wall.get(stack, 0.0))
            folded.append((stack[0], f"{';'.join(stack)} {int(round(self_wall * 1e6))}"))
        return folded

    def export_folded(self, directory) -> list[Path]:
        """Write ``<phase>.folded`` per root phase plus ``profile.folded``.

        Returns the written paths.  Writes are atomic; the directory is
        created if missing.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        folded = self._folded()
        written = []
        for root in sorted({top for top, _ in folded}):
            path = directory / f"{_safe_name(root)}.folded"
            lines = [line for top, line in folded if top == root]
            atomic_write_text(path, "\n".join(lines) + "\n")
            written.append(path)
        combined = directory / "profile.folded"
        atomic_write_text(combined, "\n".join(line for _, line in folded) + "\n")
        written.append(combined)
        return written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PhaseProfiler(rows={len(self.tracer.rows) - self._first_row})"


def _fold(rows: list[tuple], out: dict[tuple[str, ...], list]) -> None:
    """Add tracer ``rows`` into ``out`` as ``stack -> [count, host seconds]``.

    Frames nest by their host intervals: a row closed inside another
    row's interval is its child, so a phase that a kernel section runs
    (a fault's detection ``recovery`` inside ``ghost_merge``) sits under
    the section.  Rows close children first, so walking them backwards
    meets every row after its parent.
    """
    frames: list[tuple[str, float, float]] = []  # the open frames, outermost first
    for name, _, _, _, _, h0, h1 in reversed(rows):
        while frames and not (frames[-1][1] <= h0 and h1 <= frames[-1][2]):
            frames.pop()
        frames.append((name, h0, h1))
        cell = out.setdefault(tuple(frame for frame, _, _ in frames), [0, 0.0])
        cell[0] += 1
        cell[1] += h1 - h0


def _safe_name(frame: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in frame)

