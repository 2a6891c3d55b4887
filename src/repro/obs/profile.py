"""Deterministic kernel-level profiling of the pooled-engine hot path.

:class:`PhaseProfiler` is an *instrumented* profiler, not a statistical
sampler: the virtual machine opens a root section per phase (the
``vm.profiler`` dormant hook, mirroring ``vm.tracer``) and the steppers
open nested sections around their kernels through ``vm.section`` —
deposition, rank-row reduction, interpolation, the Boris push,
migration partitioning.
The shard threads of :mod:`repro.parallel_exec` time each task and the
backend hands the totals to :meth:`merge_worker_samples`, so attribution
reaches inside the threads too.

The profiler measures **host** wall time only.  It never reads or
charges the virtual clocks, so results, ``vm.elapsed()`` and ``vm.ops``
are bit-identical with the profiler on or off; with it off (the
``None`` default everywhere) the only residue is one dormant branch per
hook site.  Timings use :func:`time.perf_counter` and are therefore
machine-dependent — the *shape* of the profile is deterministic (same
sections, same counts for a given config), the durations are not.

Export is the collapsed-stack ("folded") format flamegraph tooling
consumes: one ``frame;frame;... value`` line per unique stack, with the
value in integer microseconds.  :meth:`export_folded` writes one file
per root phase plus a combined ``profile.folded``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from repro.util.atomic_io import atomic_write_text

__all__ = ["PhaseProfiler"]

#: sub-frame under which the shard threads' task timings are filed
WORKER_FRAME = "workers"


class PhaseProfiler:
    """Accumulates ``stack -> (count, host seconds)`` samples.

    The stack is a tuple of frame names rooted at the virtual machine's
    phase (``("scatter", "deposit")``, ``("gather", "workers",
    "gather_push")``, ...).  ``push``/``pop`` are the raw hooks the VM
    phase contextmanager drives; :meth:`section` is the contextmanager
    ``VirtualMachine.section`` wraps kernels in.
    """

    def __init__(self) -> None:
        self.samples: dict[tuple[str, ...], list] = {}
        self._stack: list[str] = []
        self._starts: list[float] = []

    # -- raw hooks (driven by VirtualMachine.phase) --------------------
    def push(self, name: str) -> None:
        self._stack.append(name)
        self._starts.append(perf_counter())

    def pop(self, name: str) -> None:
        t1 = perf_counter()
        if not self._stack or self._stack[-1] != name:  # pragma: no cover
            raise RuntimeError(
                f"profiler section mismatch: popping {name!r}, "
                f"stack is {self._stack!r}"
            )
        self._stack.pop()
        t0 = self._starts.pop()
        self._record(tuple(self._stack) + (name,), 1, t1 - t0)

    def _record(self, stack: tuple[str, ...], count: int, wall: float) -> None:
        cell = self.samples.get(stack)
        if cell is None:
            self.samples[stack] = [count, wall]
        else:
            cell[0] += count
            cell[1] += wall

    # -- convenience ----------------------------------------------------
    @contextmanager
    def section(self, name: str):
        """Open a nested section (``VirtualMachine.section`` opens one per kernel)."""
        self.push(name)
        try:
            yield
        finally:
            self.pop(name)

    def merge_worker_samples(self, samples: dict) -> None:
        """Fold shard-thread task totals under the current stack.

        ``samples`` maps phase name to ``[count, seconds]`` as drained
        from :meth:`repro.parallel_exec.FlatBackend.drain_profile`.
        Frames land under ``<current stack>/workers/<phase>`` — the
        drain happens outside any phase, so the usual stack root is
        empty and the frames read ``workers;scatter`` etc.
        """
        base = tuple(self._stack) + (WORKER_FRAME,)
        for handler, (count, wall) in sorted(samples.items()):
            self._record(base + (str(handler),), int(count), float(wall))

    # -- views ----------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Host seconds across root sections (nested time not re-counted)."""
        return sum(w for s, (_, w) in self.samples.items() if len(s) == 1)

    def phase_totals(self) -> dict[str, float]:
        """Root-frame name -> accumulated host seconds."""
        out: dict[str, float] = {}
        for stack, (_, wall) in self.samples.items():
            if len(stack) == 1:
                out[stack[0]] = out.get(stack[0], 0.0) + wall
        return out

    def folded_lines(self, root: str | None = None) -> list[str]:
        """Collapsed-stack lines (``a;b value_us``), sorted by stack.

        ``root`` restricts output to stacks under one root frame.  To
        keep the flamegraph well-formed, each frame's value is its
        *self* time: accumulated wall minus the wall of its direct
        children, floored at zero (children are timed inside the parent,
        so nested time would otherwise be counted twice).
        """
        child_wall: dict[tuple[str, ...], float] = {}
        for stack, (_, wall) in self.samples.items():
            if len(stack) > 1:
                parent = stack[:-1]
                child_wall[parent] = child_wall.get(parent, 0.0) + wall
        lines = []
        for stack in sorted(self.samples):
            if root is not None and stack[0] != root:
                continue
            wall = self.samples[stack][1]
            self_wall = max(0.0, wall - child_wall.get(stack, 0.0))
            lines.append(f"{';'.join(stack)} {int(round(self_wall * 1e6))}")
        return lines

    def export_folded(self, directory) -> list[Path]:
        """Write ``<phase>.folded`` per root phase plus ``profile.folded``.

        Returns the written paths.  Writes are atomic; the directory is
        created if missing.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        roots = sorted({stack[0] for stack in self.samples})
        for root in roots:
            path = directory / f"{_safe_name(root)}.folded"
            atomic_write_text(path, "\n".join(self.folded_lines(root)) + "\n")
            written.append(path)
        combined = directory / "profile.folded"
        atomic_write_text(combined, "\n".join(self.folded_lines()) + "\n")
        written.append(combined)
        return written

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PhaseProfiler(stacks={len(self.samples)}, "
            f"total={self.total_seconds:.6f}s)"
        )


def _safe_name(frame: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in frame)

