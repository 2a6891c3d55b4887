"""Persistent fork-once worker pool for the multicore flat backend.

Workers are forked once per backend (not per phase), hold a
:class:`~repro.parallel_exec.shm.ShmAttachCache`, and receive tiny task
messages — a handler name plus :class:`ShmArray` descriptors and small
scalars — over per-worker pipes.  Bulk particle/grid data never crosses
a pipe; handlers operate directly on the shared-memory segments.

Task handlers implement the worker side of the four parallel phases
(scatter, gather+push, Eulerian migration partitioning, incremental-sort
classification) on contiguous rank-segment slices of the particle pool,
using the chunk-deterministic kernels of
:mod:`repro.parallel_exec.kernels`.  A worker caches its segment's CIC
vertex evaluation between the scatter and the gather of one iteration,
keyed by ``(pool version, segment range)``, mirroring the in-process
path's pooled CIC cache.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
import weakref

import numpy as np

from repro.parallel_exec.kernels import (
    fill_sorted_matrix,
    gather_push_slice,
    classify_chunk,
    partition_segment_by_dest,
    scatter_segment,
)
from repro.parallel_exec.shm import ShmAttachCache, disable_resource_tracking
from repro.particles.arrays import ParticleArray

__all__ = ["WorkerPool", "WorkerError", "live_worker_pids"]

#: Live pools, for the bench runner's child-process RSS accounting.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def live_worker_pids() -> list[int]:
    """PIDs of every live worker process spawned by any active pool."""
    pids: list[int] = []
    for pool in list(_LIVE_POOLS):
        pids.extend(pool.pids)
    return pids


class WorkerError(RuntimeError):
    """A worker process died or raised while executing a task."""


# ----------------------------------------------------------------------
# worker-side task handlers
# ----------------------------------------------------------------------
def _attach_pool_slice(cache: ShmAttachCache, cols: dict, lo: int, hi: int) -> ParticleArray:
    """Particle view of pool rows ``[lo, hi)`` from column descriptors."""
    return ParticleArray(
        **{name: cache.get(cols[name])[lo:hi] for name in ParticleArray.__slots__}
    )


def _h_scatter(state, *, cols, offsets, r0, r1, owner, rows, shard, version):
    cache = state["cache"]
    lo, hi = int(offsets[r0]), int(offsets[r1])
    parts = _attach_pool_slice(cache, cols, lo, hi)
    counts = np.diff(offsets[r0 : r1 + 1])
    node_owner = cache.get(owner)
    cic, entries, uniq, batch = scatter_segment(
        state["grid"], parts, counts, r0, node_owner, cache.get(rows)[shard]
    )
    state["cic"] = (version, r0, r1, cic)
    return entries, uniq, batch


def _h_gather_push(state, *, cols, offsets, r0, r1, node_values, dt, version):
    cache = state["cache"]
    lo, hi = int(offsets[r0]), int(offsets[r1])
    parts = _attach_pool_slice(cache, cols, lo, hi)
    cached = state["cic"]
    cic = cached[3] if cached is not None and cached[:3] == (version, r0, r1) else None
    state["cic"] = None  # positions change in the push below
    gather_push_slice(state["grid"], parts, cache.get(node_values), float(dt), cic)
    return None


def _h_migrate(state, *, cols, offsets, r0, r1, owner, scratch):
    cache = state["cache"]
    grid = state["grid"]
    cell_owner = cache.get(owner)
    out = cache.get(scratch)
    result = []
    for r in range(r0, r1):
        lo, hi = int(offsets[r]), int(offsets[r + 1])
        parts = _attach_pool_slice(cache, cols, lo, hi)
        cells = grid.cell_id_of_positions(parts.x, parts.y)
        dest = cell_owner[cells]
        order, uniq, starts = partition_segment_by_dest(dest)
        fill_sorted_matrix(parts, order, out[lo:hi])
        result.append((uniq, starts))
    return result


def _h_classify(state, *, keys, rank_of, lows, highs, splitters, lo, hi, dest, same):
    cache = state["cache"]
    lo, hi = int(lo), int(hi)
    d, s = classify_chunk(
        cache.get(keys)[lo:hi],
        cache.get(rank_of)[lo:hi],
        cache.get(lows)[lo:hi],
        cache.get(highs)[lo:hi],
        splitters,
    )
    cache.get(dest)[lo:hi] = d
    cache.get(same)[lo:hi] = s
    return None


def _h_ping(state):
    return "pong"


def _h_set_profile(state, *, enabled):
    """Toggle in-worker handler timing (resets accumulated samples)."""
    state["profile"] = bool(enabled)
    state["prof_samples"] = {}
    return None


def _h_drain_profile(state):
    """Return and clear this worker's ``{handler: [count, seconds]}``."""
    samples = state["prof_samples"]
    state["prof_samples"] = {}
    return samples


_HANDLERS = {
    "scatter": _h_scatter,
    "gather_push": _h_gather_push,
    "migrate": _h_migrate,
    "classify": _h_classify,
    "ping": _h_ping,
    "set_profile": _h_set_profile,
    "drain_profile": _h_drain_profile,
}

#: handlers whose bodies are timed when profiling is on (control
#: messages are not — they are not part of the hot path)
_PROFILED = frozenset({"scatter", "gather_push", "migrate", "classify"})


def _worker_main(conn, grid_params: tuple) -> None:
    """Worker loop: reconstruct the grid, serve tasks until sentinel."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    disable_resource_tracking()
    from repro.mesh.grid import Grid2D

    nx, ny, lx, ly = grid_params
    state = {
        "grid": Grid2D(int(nx), int(ny), float(lx), float(ly)),
        "cache": ShmAttachCache(capacity=12),
        "cic": None,
        "profile": False,  #: dormant until a "set_profile" control message
        "prof_samples": {},
    }
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg is None:
                break
            fn, kwargs = msg
            try:
                if state["profile"] and fn in _PROFILED:
                    from time import perf_counter

                    t0 = perf_counter()
                    out = _HANDLERS[fn](state, **kwargs)
                    dt = perf_counter() - t0
                    cell = state["prof_samples"].setdefault(fn, [0, 0.0])
                    cell[0] += 1
                    cell[1] += dt
                else:
                    out = _HANDLERS[fn](state, **kwargs)
                reply = ("ok", out)
            except BaseException as exc:  # report, keep serving
                reply = ("err", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        state["cache"].close()
        conn.close()


# ----------------------------------------------------------------------
# main-process side
# ----------------------------------------------------------------------
class WorkerPool:
    """``nworkers`` forked task servers with one pipe each.

    Tasks are addressed to a *specific* worker (``run`` takes
    ``(worker, handler, kwargs)`` triples) so segment affinity holds
    across phases — the worker that scattered a pool slice also gathers
    it and can reuse its cached CIC evaluation.
    """

    def __init__(self, nworkers: int, grid_params: tuple) -> None:
        ctx = multiprocessing.get_context("fork")
        self._procs = []
        self._conns = []
        self._closed = False
        for _ in range(int(nworkers)):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, grid_params), daemon=True)
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)
        _LIVE_POOLS.add(self)

    @property
    def nworkers(self) -> int:
        return len(self._procs)

    @property
    def pids(self) -> list[int]:
        """PIDs of the live worker processes."""
        if self._closed:
            return []
        return [p.pid for p in self._procs if p.is_alive()]

    def run(self, tasks: list[tuple[int, str, dict]]) -> list:
        """Dispatch tasks and gather results (aligned with ``tasks``).

        All sends complete before the first receive, so workers execute
        concurrently; a worker exception or death raises
        :class:`WorkerError` in the main process.
        """
        if self._closed:
            raise WorkerError("worker pool is closed")
        for w, fn, kwargs in tasks:
            self._conns[w].send((fn, kwargs))
        out = []
        for w, fn, _ in tasks:
            try:
                status, payload = self._conns[w].recv()
            except (EOFError, OSError):
                raise WorkerError(f"worker {w} died while executing {fn!r}") from None
            if status != "ok":
                raise WorkerError(f"worker {w} failed in {fn!r}:\n{payload}")
            out.append(payload)
        return out

    def set_profiling(self, enabled: bool) -> None:
        """Toggle handler timing in every worker (resets their samples)."""
        self.run(
            [
                (w, "set_profile", {"enabled": bool(enabled)})
                for w in range(self.nworkers)
            ]
        )

    def drain_profile(self) -> dict:
        """Collect and clear all workers' handler timings.

        Returns ``{handler: [count, seconds]}`` summed over workers —
        the per-handler CPU-time footprint of the pool since profiling
        was enabled (or last drained).
        """
        merged: dict[str, list] = {}
        per_worker = self.run(
            [(w, "drain_profile", {}) for w in range(self.nworkers)]
        )
        for samples in per_worker:
            for fn, (count, wall) in samples.items():
                cell = merged.setdefault(fn, [0, 0.0])
                cell[0] += int(count)
                cell[1] += float(wall)
        return merged

    def close(self) -> None:
        """Stop the workers (sentinel, join, terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._procs.clear()
        self._conns.clear()
        _LIVE_POOLS.discard(self)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
