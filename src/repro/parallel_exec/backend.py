"""Shard threads for the pooled PIC phases.

:class:`FlatBackend` cuts the pool's rank segments into contiguous
ranges balanced by particle count and runs the segment kernels of
:mod:`repro.parallel_exec.kernels` on them from a
``ThreadPoolExecutor``, on slices of the ordinary in-process
:class:`~repro.particles.arrays.ParticlePool`.  The compiled passes (the
scatter's CIC + ghost slots + deposit, the gather + push) release the
interpreter lock, so shards overlap there; everything else (a few small
NumPy calls per shard, message coalescing, all virtual-machine
accounting) runs under it, one thread at a time.  Shards write disjoint
pool slices and one deposition row each, and a node is deposited on-rank
only by its owner, so the rows have disjoint support and results are
bit-identical for every worker count (DESIGN.md §5.5).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from time import perf_counter

import numpy as np

from repro.machine.batch import MessageBatch
from repro.parallel_exec.kernels import gather_push_slice, scatter_segment
from repro.particles.arrays import ParticlePool
from repro.pic.deposition import CHANNELS

__all__ = ["FlatBackend", "create_backend", "resolve_workers"]


def resolve_workers(spec) -> int:
    """Normalize a ``--workers`` value: int, numeric string, or ``"auto"``.

    ``"auto"`` resolves to the usable CPU count; ``0``/``1``/``None``
    mean in-process execution.
    """
    if spec is None:
        return 0
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            try:
                return len(os.sched_getaffinity(0))
            except (AttributeError, OSError):  # pragma: no cover - non-Linux
                return os.cpu_count() or 1
        spec = int(spec)
    n = int(spec)
    if n < 0:
        raise ValueError(f"workers must be >= 0, got {n}")
    return n


def create_backend(workers, grid):
    """A :class:`FlatBackend` of ``workers`` shard threads, or ``None``
    (in-process execution) when ``workers`` resolves to 0 or 1."""
    n = resolve_workers(workers)
    return FlatBackend(n, grid) if n > 1 else None


class FlatBackend:
    """Thread-parallel execution of the pooled phases' hot kernels.

    An *execution detail*: it owns no simulation state and is rank-count
    agnostic, so one backend serves a simulation across rank-failure
    shrinks.  :meth:`close` joins the threads; a closed backend refuses
    further work.
    """

    def __init__(self, nworkers: int, grid) -> None:
        self.grid = grid
        self.nworkers = int(nworkers)
        self._executor = ThreadPoolExecutor(self.nworkers, thread_name_prefix="repro-shard")
        #: ``{phase: [shard tasks, seconds inside them]}`` since the last drain
        self._shard_seconds: dict[str, list] = {}

    def _shards(self, counts: np.ndarray) -> list[tuple[int, int]]:
        """Contiguous rank ranges covering ``[0, p)``, balanced by count.

        Every rank lands in exactly one shard (zero-particle ranks
        included); shard boundaries depend only on ``counts`` and the
        worker count, and the disjoint support of on-rank deposition
        makes results independent of them.
        """
        p = int(counts.shape[0])
        k = max(min(self.nworkers, p), 1)
        cum = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        total = int(cum[-1])
        targets = (np.arange(1, k, dtype=np.int64) * total) // k
        cuts = np.searchsorted(cum, targets, side="left")
        bounds = np.concatenate(([0], cuts, [p]))
        bounds = np.maximum.accumulate(np.clip(bounds, 0, p))
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(k)
            if bounds[i + 1] > bounds[i]
        ]

    def _run(self, phase: str, pool: ParticlePool, shards: list, task) -> list:
        """``[task(i, r0, parts) for shard i = ranks [r0, r1)]``, run concurrently,
        ``parts`` being the shard's slice of the pool.

        Every future is read, in shard order: an exception (or a warning
        raised as one) inside a shard reaches the caller as itself.
        """
        offsets = pool.offsets

        def timed(i: int):
            r0, r1 = shards[i]
            parts = pool.array.slice_view(int(offsets[r0]), int(offsets[r1]))
            t0 = perf_counter()
            out = task(i, r0, parts)
            return out, perf_counter() - t0

        futures = [self._executor.submit(timed, i) for i in range(len(shards))]
        wait(futures)  # a failed shard's siblings finish before the caller sees the error
        results, seconds = zip(*[f.result() for f in futures])
        cell = self._shard_seconds.setdefault(phase, [0, 0.0])
        cell[0] += len(shards)
        cell[1] += sum(seconds)
        return list(results)

    def scatter(self, pool: ParticlePool, node_owner: np.ndarray):
        """Thread-parallel CIC deposition over the pool's rank segments.

        Returns ``(rows, entries_per_rank, uniq_per_rank, batch)``: the
        ``(nshards, nchannels, nnodes)`` deposition rows, one per shard
        (disjoint support, so the caller's sum is exact), ghost-table
        tallies, and the coalesced ghost messages — exactly the
        intermediates of one :func:`scatter_segment` call over ``[0, p)``.
        Shards are ascending rank ranges, so their batches laid end to
        end are the ``(src, dst, node)``-ordered batch of the whole pool.
        """
        counts = pool.counts
        shards = self._shards(counts)
        rows = np.empty((len(shards), len(CHANNELS), node_owner.shape[0]))

        def task(i: int, r0: int, parts):
            r1 = shards[i][1]
            return scatter_segment(self.grid, parts, counts[r0:r1], r0, node_owner, rows[i])

        _, entries, uniq, batches = zip(*self._run("scatter", pool, shards, task))
        return rows, np.concatenate(entries), np.concatenate(uniq), MessageBatch.concat(batches)

    def gather_push(self, pool: ParticlePool, planes, dt: float) -> None:
        """Thread-parallel field gather + Boris push, in place in the pool,
        from the six ``(ny, nx)`` ``planes`` of E and B."""
        shards = self._shards(pool.counts)

        def task(i: int, r0: int, parts) -> None:
            gather_push_slice(self.grid, parts, planes, dt)

        self._run("gather_push", pool, shards, task)

    def drain_profile(self) -> dict:
        """Return and clear ``{phase: [shard tasks, seconds]}``, summed over
        shards: the threads' time inside the kernels, for
        :meth:`repro.obs.profile.PhaseProfiler.merge_worker_samples`."""
        drained, self._shard_seconds = self._shard_seconds, {}
        return drained

    def close(self) -> None:
        """Join the shard threads (idempotent)."""
        self._executor.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"FlatBackend(workers={self.nworkers}, grid={self.grid!r})"
