"""Multicore backend of the pooled PIC phases: sharded pool, shared memory.

:class:`FlatBackend` owns a :class:`~repro.parallel_exec.shm.SharedArena`
(the particle pool's columns plus per-phase scratch buffers live in
named shared-memory blocks) and a persistent
:class:`~repro.parallel_exec.pool.WorkerPool`.  Each parallel phase
shards the pool's rank segments into contiguous ranges balanced by
particle count and dispatches one task per worker; all virtual-machine
accounting (clocks, op counters, comm stats, ghost-table stats) stays in
the main process, so results are bit-identical to in-process execution
for every worker count (DESIGN.md §5.5).  The one cross-shard float
reduction — on-rank deposition — costs one ``(nchannels, nnodes)`` row
per *shard*, not per rank: a node is deposited on-rank only by its
owner, so shard rows have disjoint support and their sum is exact.

Construction goes through :func:`create_backend`, which degrades
gracefully: without usable shared memory, without ``fork``, or with
``workers <= 1`` it warns once and returns ``None`` — callers then run
the ordinary in-process flat path with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
import weakref

import numpy as np

from repro import native
from repro.machine.batch import MessageBatch
from repro.parallel_exec.kernels import classify_chunk
from repro.parallel_exec.pool import WorkerError, WorkerPool
from repro.parallel_exec.shm import SharedArena, shared_memory_available
from repro.particles.arrays import MATRIX_COLUMNS, ParticleArray, ParticlePool
from repro.pic.deposition import CHANNELS
from repro.util.errors import InvalidRankError

__all__ = ["FlatBackend", "create_backend", "resolve_workers"]

#: fallback reasons already warned about (one warning per process each)
_warned: set[str] = set()


def _warn_once(reason: str) -> None:
    if reason not in _warned:
        _warned.add(reason)
        warnings.warn(
            f"multicore backend unavailable ({reason}); "
            "falling back to in-process execution (results identical)",
            RuntimeWarning,
            stacklevel=3,
        )


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


def create_backend(workers, grid, arena_tag: str = "flat", reason_sink=None):
    """Build a :class:`FlatBackend`, or ``None`` with one warning.

    ``None`` (in-process execution) is returned when ``workers`` resolves
    to 0 or 1, when the platform lacks ``fork`` or usable
    ``multiprocessing.shared_memory``, or when worker startup fails —
    never an exception, and never a silent change of results.

    ``reason_sink`` (optional ``callable(str)``) receives the fallback
    reason on *every* degraded construction — unlike the
    ``RuntimeWarning``, which fires once per process per reason — so
    callers (``Simulation``) can surface the degradation in results and
    telemetry instead of relying on a transient warning.
    """

    def fallback(reason: str):
        if reason_sink is not None:
            reason_sink(reason)
        _warn_once(reason)
        return None

    n = resolve_workers(workers)
    if n <= 1:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return fallback("no fork start method on this platform")
    if not shared_memory_available():
        return fallback("multiprocessing.shared_memory is not usable")
    native.kernels()  # build and load before the fork: workers inherit it, none compiles
    try:
        return FlatBackend(n, grid, arena_tag=arena_tag)
    except Exception as exc:  # pragma: no cover - startup race/oddity
        return fallback(f"worker startup failed: {exc}")


def _shutdown(workers: WorkerPool, arena: SharedArena) -> None:
    workers.close()
    arena.close()


class FlatBackend:
    """Worker-parallel execution of the pooled phases' hot kernels.

    The backend is an *execution detail*: it owns no simulation state
    beyond the shared-memory residency of the current
    :class:`~repro.particles.arrays.ParticlePool` (pools must be built
    through :meth:`pool_from_ranks` / :meth:`pool_from_matrices` so
    worker-side in-place pushes land in the caller's arrays).  It is
    rank-count agnostic — scratch buffers resize lazily — so one backend
    serves a simulation across rank-failure shrinks.
    """

    def __init__(self, nworkers: int, grid, *, arena_tag: str = "flat") -> None:
        self.grid = grid
        self.arena = SharedArena(tag=arena_tag)
        self.workers = WorkerPool(nworkers, (grid.nx, grid.ny, grid.lx, grid.ly))
        self._pool: ParticlePool | None = None
        self._cols: dict | None = None
        self._version = 0
        self._finalizer = weakref.finalize(self, _shutdown, self.workers, self.arena)
        # surface fork/pipe breakage at construction, not mid-run
        self.workers.run([(w, "ping", {}) for w in range(self.workers.nworkers)])

    @property
    def nworkers(self) -> int:
        return self.workers.nworkers

    # ------------------------------------------------------------------
    # shared-memory pool construction
    # ------------------------------------------------------------------
    def _alloc_pool(self, total: int) -> tuple[ParticleArray, dict]:
        """Uninitialized pool columns in one fresh shared block.

        ``fresh=True`` is load-bearing: rebuild sources are often views
        of the previous pool block, so in-place block reuse would
        corrupt them mid-copy.
        """
        specs = [((total,), np.float64)] * 8 + [((total,), np.int64)]
        pairs = self.arena.columns("pool", specs, fresh=True)
        arrays = [arr for arr, _ in pairs]
        cols = {
            name: desc for (_, desc), name in zip(pairs, ParticleArray.__slots__)
        }
        return ParticleArray(*arrays), cols

    def _register(self, pool: ParticlePool, cols: dict) -> None:
        self._pool = pool
        self._cols = cols
        self._version += 1

    def _require_cols(self, pool: ParticlePool) -> dict:
        if pool is not self._pool:
            raise WorkerError(
                "pool was not built through this backend "
                "(use pool_from_ranks/pool_from_matrices)"
            )
        return self._cols

    def pool_from_ranks(self, parts: list[ParticleArray]) -> ParticlePool:
        """Shared-memory equivalent of :meth:`ParticlePool.from_ranks`."""
        counts = np.array([p.n for p in parts], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        array, cols = self._alloc_pool(int(offsets[-1]))
        for name in ParticleArray.__slots__:
            np.concatenate(
                [getattr(p, name) for p in parts], out=getattr(array, name)
            )
        pool = ParticlePool(array, offsets)
        self._register(pool, cols)
        return pool

    def pool_from_matrices(self, matrices: list[np.ndarray]) -> ParticlePool:
        """Shared-memory equivalent of :meth:`ParticlePool.from_matrices`."""
        ncols = len(MATRIX_COLUMNS)
        mats = [np.asarray(m, dtype=np.float64).reshape(-1, ncols) for m in matrices]
        counts = np.array([m.shape[0] for m in mats], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        array, cols = self._alloc_pool(int(offsets[-1]))
        for j, name in enumerate(MATRIX_COLUMNS):
            col = np.concatenate([m[:, j] for m in mats]) if mats else np.empty(0)
            if name == "ids":
                array.ids[:] = np.round(col).astype(np.int64)
            else:
                np.copyto(getattr(array, name), col)
        pool = ParticlePool(array, offsets)
        self._register(pool, cols)
        return pool

    @property
    def pool_version(self) -> int:
        return self._version

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def _shards(self, counts: np.ndarray) -> list[tuple[int, int]]:
        """Contiguous rank ranges covering ``[0, p)``, balanced by count.

        Every rank lands in exactly one shard (zero-particle ranks
        included); shard boundaries depend only on ``counts`` and the
        worker count, and the disjoint support of on-rank deposition
        (a node is deposited on-rank only by its owner) makes results
        independent of them.
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

    # ------------------------------------------------------------------
    # phase fan-outs
    # ------------------------------------------------------------------
    def scatter(self, pool: ParticlePool, node_owner: np.ndarray):
        """Worker-parallel CIC deposition over the pool's rank segments.

        Returns ``(rows, entries_per_rank, uniq_per_rank, batch)``:
        the shared ``(nshards, nchannels, nnodes)`` deposition rows, one
        per shard (disjoint support, so the caller's sum is exact),
        ghost-table tallies, and the coalesced ghost messages — exactly
        the intermediates the serial flat scatter computes.  Shards are
        ascending rank ranges, so their batches laid end to end are the
        ``(src, dst, node)``-ordered batch of the whole pool.
        """
        cols = self._require_cols(pool)
        shards = self._shards(pool.counts)
        rows, rows_desc = self.arena.array(
            "rows", (len(shards), len(CHANNELS), node_owner.shape[0]), np.float64
        )
        owner_desc = self.arena.publish("owner", np.ascontiguousarray(node_owner))
        offsets = np.asarray(pool.offsets, dtype=np.int64)
        tasks = [
            (
                w,
                "scatter",
                dict(
                    cols=cols,
                    offsets=offsets,
                    r0=r0,
                    r1=r1,
                    owner=owner_desc,
                    rows=rows_desc,
                    shard=w,
                    version=self._version,
                ),
            )
            for w, (r0, r1) in enumerate(shards)
        ]
        entries, uniq, batches = zip(*self.workers.run(tasks))
        return rows, np.concatenate(entries), np.concatenate(uniq), MessageBatch.concat(batches)

    def gather_push(self, pool: ParticlePool, node_values: np.ndarray, dt: float) -> None:
        """Worker-parallel field gather + Boris push, in place in the pool.

        Reuses each worker's cached CIC evaluation from the scatter of
        the same pool version when available.
        """
        cols = self._require_cols(pool)
        nv_desc = self.arena.publish("node_values", np.ascontiguousarray(node_values))
        offsets = np.asarray(pool.offsets, dtype=np.int64)
        tasks = [
            (
                w,
                "gather_push",
                dict(
                    cols=cols,
                    offsets=offsets,
                    r0=r0,
                    r1=r1,
                    node_values=nv_desc,
                    dt=float(dt),
                    version=self._version,
                ),
            )
            for w, (r0, r1) in enumerate(self._shards(pool.counts))
        ]
        self.workers.run(tasks)

    def migration_sends(self, pool: ParticlePool, cell_owner: np.ndarray):
        """Worker-parallel Eulerian migration partitioning.

        Workers compute each particle's destination (owner of its cell),
        destination-stable-sort every rank segment, and write the packed
        transport rows into a shared scratch matrix; the returned
        per-source send dicts are byte-identical to
        ``exchange_by_destination_pooled``'s partitioning of the same
        pool (views into the scratch — consumed before the next call).
        """
        cols = self._require_cols(pool)
        p = pool.p
        scratch, scratch_desc = self.arena.array(
            "migrate", (pool.n, len(MATRIX_COLUMNS)), np.float64
        )
        owner_desc = self.arena.publish("owner", np.ascontiguousarray(cell_owner))
        offsets = np.asarray(pool.offsets, dtype=np.int64)
        shards = self._shards(pool.counts)
        tasks = [
            (
                w,
                "migrate",
                dict(
                    cols=cols,
                    offsets=offsets,
                    r0=r0,
                    r1=r1,
                    owner=owner_desc,
                    scratch=scratch_desc,
                ),
            )
            for w, (r0, r1) in enumerate(shards)
        ]
        results = self.workers.run(tasks)
        sends: list[dict[int, np.ndarray]] = [dict() for _ in range(p)]
        for (r0, r1), per_rank in zip(shards, results):
            for lr, (unq, starts) in enumerate(per_rank):
                r = r0 + lr
                if unq.size == 0:
                    continue
                if unq[0] < 0 or unq[-1] >= p:
                    bad = unq[(unq < 0) | (unq >= p)]
                    raise InvalidRankError(
                        f"exchange_by_destination_pooled: destination out of "
                        f"range [0, {p}) in rank {r}'s segment "
                        f"(destinations {bad.tolist()[:3]})"
                    )
                lo = int(offsets[r])
                bounds = np.append(starts, int(offsets[r + 1]) - lo)
                for i in range(unq.size):
                    sends[r][int(unq[i])] = scratch[
                        lo + int(bounds[i]) : lo + int(bounds[i + 1])
                    ]
        return sends

    def classify(
        self,
        keys: np.ndarray,
        rank_of: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        splitters: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Worker-parallel incremental-sort classification.

        Pure per-element integer work — any chunking is bit-identical to
        the serial ``searchsorted`` pass this replaces.
        """
        n = int(keys.shape[0])
        if n < 4 * self.nworkers:  # dispatch overhead dwarfs the work
            return classify_chunk(keys, rank_of, lows, highs, splitters)
        ins = self.arena.columns(
            "classify_in",
            [
                ((n,), keys.dtype),
                ((n,), rank_of.dtype),
                ((n,), lows.dtype),
                ((n,), highs.dtype),
            ],
        )
        for (view, _), src in zip(ins, (keys, rank_of, lows, highs)):
            view[...] = src
        outs = self.arena.columns(
            "classify_out", [((n,), np.int64), ((n,), np.bool_)]
        )
        (dest_view, dest_desc), (same_view, same_desc) = outs
        k = self.nworkers
        bounds = (np.arange(k + 1, dtype=np.int64) * n) // k
        tasks = [
            (
                w,
                "classify",
                dict(
                    keys=ins[0][1],
                    rank_of=ins[1][1],
                    lows=ins[2][1],
                    highs=ins[3][1],
                    splitters=np.ascontiguousarray(splitters),
                    lo=int(bounds[w]),
                    hi=int(bounds[w + 1]),
                    dest=dest_desc,
                    same=same_desc,
                ),
            )
            for w in range(k)
            if bounds[w + 1] > bounds[w]
        ]
        self.workers.run(tasks)
        return dest_view.copy(), same_view.copy()

    # ------------------------------------------------------------------
    # profiling passthrough (repro.obs.profile)
    # ------------------------------------------------------------------
    def set_profiling(self, enabled: bool) -> None:
        """Toggle in-worker handler timing (see ``WorkerPool.set_profiling``)."""
        self.workers.set_profiling(enabled)

    def drain_profile(self) -> dict:
        """Collect and clear worker handler timings, summed over workers."""
        return self.workers.drain_profile()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink every shared block (idempotent)."""
        self._finalizer()

    def __repr__(self) -> str:
        return f"FlatBackend(workers={self.nworkers}, grid={self.grid!r})"
