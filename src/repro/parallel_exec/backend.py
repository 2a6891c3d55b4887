"""Shard threads for the pooled PIC phases.

:class:`FlatBackend` cuts the pool's rank segments into contiguous
ranges balanced by particle count and hands them to the two compiled
particle passes (:mod:`repro.native`) of either stepper: the scatter's
CIC + ghost slots + deposit (and the modern stepper's zigzag currents)
and the gather + push (on the CIC or on the Yee stencils).  Each phase is one call into
the C pass, whatever the worker count; inside it, shard ``i`` runs on
team slot ``i``: the calling thread is slot 0, and slots ``1 ..
nworkers - 1`` are helper threads that the backend starts when it is
made, that wait inside the C pass (spinning for a step's longest gap
between two passes, then asleep) and never touch the interpreter, and
that :meth:`FlatBackend.close` joins.  Shards are whole rank segments and
a node is deposited on-rank only by its owner, so they deposit into one
block without a race, and the call returns what the in-process pass
returns, bit for bit, for every worker count (DESIGN.md §5.5).  Without
the compiled passes the NumPy bodies run on the calling thread, the
shards laid end to end: the in-process path.
"""

from __future__ import annotations

import os
import threading
import weakref
from time import perf_counter

import numpy as np

from repro import native
from repro.native.calls import Shards, team_block
from repro.parallel_exec.kernels import gather_push_slice, scatter_segment
from repro.particles.arrays import ParticlePool
from repro.pic.deposition import CHANNELS

__all__ = ["FlatBackend", "create_backend", "resolve_workers"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(spec) -> int:
    """Normalize a ``--workers`` value: int, numeric string, or ``"auto"``.

    ``"auto"`` resolves to the usable CPU count; ``0``/``1``/``None``
    mean in-process execution.
    """
    if spec is None:
        return 0
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            return _usable_cpus()
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


def _dismiss(compiled, team, helpers, pid: int) -> None:
    """Send the helpers home and join them (in the process that started them)."""
    if helpers and os.getpid() == pid:
        compiled.dismiss(team)
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()


class FlatBackend:
    """Shard-parallel execution of the pooled phases' compiled passes.

    An *execution detail*: it owns no simulation state and is rank-count
    agnostic, so one backend serves a simulation across rank-failure
    shrinks.  Its team — a control block and ``nworkers - 1`` helper
    threads parked in the C pass — starts with it; :meth:`close` joins the
    helpers, and a closed backend refuses further work.  Helpers spin
    between passes only when every thread of the team has a CPU of the
    affinity mask to itself, and block at once otherwise.  Calls from
    several threads take turns.  A process forked from the one that made
    the backend (a job-service worker) runs every shard on its calling
    thread: the helpers are not there.
    """

    def __init__(self, nworkers: int, grid) -> None:
        self.grid = grid
        self.nworkers = int(nworkers)
        #: ``{phase: [shard tasks, seconds inside them]}`` since the last drain
        self._shard_seconds: dict[str, list] = {}
        self._pid = os.getpid()
        #: one pass at a time on the team (its block holds one job)
        self._lock = threading.Lock()
        compiled = native.kernels()
        self._team, self._helpers = None, []
        if compiled is not None:
            self._team = team_block(self.nworkers, spin=self.nworkers <= _usable_cpus())
            self._helpers = [
                threading.Thread(
                    target=compiled.park, args=(self._team, slot), name=f"repro-shard-{slot}",
                    daemon=True,
                )  # fmt: skip
                for slot in range(1, self.nworkers)
            ]
        self._close = weakref.finalize(
            self, _dismiss, compiled, self._team, self._helpers, self._pid
        )
        for helper in self._helpers:
            helper.start()

    def _cuts(self, offsets: np.ndarray) -> np.ndarray:
        """The shards of a pool whose rank segments start at ``offsets``:
        ``k + 1`` rank cuts ascending from 0 to ``p``, ``k <= nworkers``,
        balanced by particle count.

        Every rank lands in exactly one shard (zero-particle ranks
        included); the cuts depend only on the counts and the worker
        count, and the disjoint support of on-rank deposition makes
        results independent of them.
        """
        p, total = len(offsets) - 1, int(offsets[-1])
        k = max(min(self.nworkers, p), 1)
        inner = offsets.searchsorted([total * i // k for i in range(1, k)]).tolist()
        return np.array(sorted({0, *inner, p}), dtype=np.int64)

    def _cut(self, pool: ParticlePool) -> Shards:
        """This call's :class:`~repro.native.calls.Shards` of ``pool``."""
        if not self._close.alive:
            raise RuntimeError(f"{self!r} is closed")
        ranks = self._cuts(pool.offsets)
        team = self._team if os.getpid() == self._pid else None
        return Shards(ranks, pool.offsets[ranks], team, np.zeros((len(ranks) - 1, 3), np.int64))

    def _timed(self, phase: str, shards: Shards, started: float) -> None:
        """Add the call's shard seconds to the profile: what the C pass timed
        inside each shard, or the wall of the call when the NumPy bodies
        ran on this thread."""
        seconds = int(shards.out[:, 1].sum()) * 1e-9 or perf_counter() - started
        cell = self._shard_seconds.setdefault(phase, [0, 0.0])
        cell[0] += len(shards.out)
        cell[1] += seconds

    def scatter(self, pool: ParticlePool, node_owner: np.ndarray, moved=None):
        """Sharded deposition over the pool's rank segments (``moved``: the
        modern stepper's, :func:`scatter_segment`).

        Returns ``(rows, entries_per_rank, uniq_per_rank, batch)``: the
        ``(1, nchannels, nnodes)`` on-rank deposition, ghost-table
        tallies, and the coalesced ghost messages — exactly what one
        in-process :func:`scatter_segment` call over ``[0, p)`` returns.
        """
        rows = np.empty((1, len(CHANNELS), node_owner.shape[0]))
        with self._lock:
            shards, started = self._cut(pool), perf_counter()
            _, entries, uniq, batch = scatter_segment(
                self.grid, pool.array, pool.counts, node_owner, rows[0], shards, moved
            )
            self._timed("scatter", shards, started)
        return rows, entries, uniq, batch

    def gather_push(self, pool: ParticlePool, planes, dt: float, cells=None, node_owner=None):
        """Sharded field gather + Boris push, in place in the pool, from the
        six ``(ny, nx)`` ``planes`` of E and B, interleaved per node once
        per call (by the team, a part each) for all the shards (given
        ``cells``, on the Yee stencils, returning the request slots of the
        pool's rank segments under ``node_owner``: :func:`gather_push_slice`)."""
        with self._lock:
            shards, started = self._cut(pool), perf_counter()
            slots = gather_push_slice(
                self.grid, pool.array, planes, dt, shards, cells, pool.counts, node_owner
            )
            self._timed("gather_push", shards, started)
        return slots

    def drain_profile(self) -> dict:
        """Return and clear ``{phase: [shard tasks, seconds]}``, summed over
        shards: the team's time inside the passes, for
        :meth:`repro.obs.profile.PhaseProfiler.merge_worker_samples`."""
        drained, self._shard_seconds = self._shard_seconds, {}
        return drained

    def close(self) -> None:
        """Join the helper threads (idempotent)."""
        with self._lock:
            self._close()

    def __repr__(self) -> str:
        return f"FlatBackend(workers={self.nworkers}, grid={self.grid!r})"
