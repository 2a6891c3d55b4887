"""Ghost-grid-point tables with duplicate-access removal.

In the parallel scatter, a particle's vertex nodes owned by other ranks
become *ghost grid points*: contributions are accumulated locally and a
single summed value per unique node is communicated (paper §3.2 —
"removal of duplicated accesses" + "communication coalescing").

The paper describes two table organizations (its Figure 8):

* a **direct address table** — an array indexed by global node id:
  O(1) per access but memory proportional to the whole mesh;
* a **hash table** — memory proportional to the unique off-rank nodes
  actually touched, at the price of probe work per access.

Both are implemented here with identical semantics (property-tested to
agree) and report the op counts / memory footprint the ablation bench
compares.  A table charges :attr:`GhostTable.OPS_PER_ENTRY` operations
per entry, a constant of its kind.

The pooled scatter of :class:`~repro.pic.parallel.ParallelPIC` keeps no
table objects: it deduplicates every rank's ghost entries in one pass
(:func:`~repro.pic.deposition.ghost_slots_numpy`) and keeps the stats a
per-rank table would (entries, ops, unique nodes) as three per-rank
arrays, charging ``OPS_PER_ENTRY`` times each rank's entry count.  The
tables here drive the per-rank oracle (``tests/_looped_oracle.py``), the
Fig 8 ablation and the bench cases.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.util import require

__all__ = [
    "GHOST_TABLES",
    "GhostTableStats",
    "GhostTable",
    "DirectAddressTable",
    "HashGhostTable",
    "make_ghost_table",
]


@dataclass
class GhostTableStats:
    """Accounting of one scatter epoch's duplicate-removal work."""

    entries: int = 0  #: raw (node, value) contributions processed
    unique_nodes: int = 0  #: distinct nodes after duplicate removal (set by flush)
    ops: float = 0.0  #: abstract table operations (for the cost model)
    memory_slots: int = 0  #: table storage, in node-sized slots


class GhostTable(ABC):
    """Accumulates off-rank deposition entries, summing duplicates.

    Parameters
    ----------
    nnodes:
        Global node count (address space of node ids).
    nchannels:
        Value components carried per node (4 for rho+J).
    """

    kind: str = "abstract"
    #: abstract table operations charged per accumulated entry
    OPS_PER_ENTRY: float = 0.0

    def __init__(self, nnodes: int, nchannels: int = 4) -> None:
        require(nnodes >= 1, "nnodes must be >= 1")
        require(nchannels >= 1, "nchannels must be >= 1")
        self.nnodes = nnodes
        self.nchannels = nchannels
        self.stats = GhostTableStats()

    @abstractmethod
    def accumulate(self, nodes: np.ndarray, values: np.ndarray) -> None:
        """Add entries: ``nodes`` flat int64 ids, ``values`` ``(nchannels, k)``."""

    @abstractmethod
    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(unique_nodes, summed_values)`` and reset the table.

        ``unique_nodes`` is sorted int64 of length ``u``;
        ``summed_values`` is ``(nchannels, u)``.
        """

    def _check(self, nodes: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64)
        require(
            values.shape == (self.nchannels, nodes.size),
            f"values must be ({self.nchannels}, {nodes.size}), got {values.shape}",
        )
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.nnodes):
            raise ValueError(f"node id out of range [0, {self.nnodes})")
        return nodes, values


class DirectAddressTable(GhostTable):
    """Dense per-node accumulator: O(1) access, O(m) memory (Fig 8 right)."""

    kind = "direct"
    OPS_PER_ENTRY = 1.0  # one direct store per entry

    def __init__(self, nnodes: int, nchannels: int = 4) -> None:
        super().__init__(nnodes, nchannels)
        self._acc = np.zeros((nchannels, nnodes))
        self._touched = np.zeros(nnodes, dtype=bool)
        self.stats.memory_slots = nnodes * (nchannels + 1)

    def accumulate(self, nodes: np.ndarray, values: np.ndarray) -> None:
        nodes, values = self._check(nodes, values)
        if nodes.size == 0:
            return
        for c in range(self.nchannels):
            self._acc[c] += np.bincount(nodes, weights=values[c], minlength=self.nnodes)
        self._touched[nodes] = True
        self.stats.entries += nodes.size
        self.stats.ops += self.OPS_PER_ENTRY * nodes.size

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        uniq = np.flatnonzero(self._touched).astype(np.int64)
        summed = self._acc[:, uniq].copy()
        self.stats.unique_nodes = uniq.size
        self._acc.fill(0.0)
        self._touched.fill(False)
        return uniq, summed


class HashGhostTable(GhostTable):
    """Sparse accumulator keyed by node id: memory O(unique) (Fig 8 left).

    Implemented with sorted-unique compression (the vectorized analogue
    of open-addressing inserts); op accounting charges ~3 probes per
    entry, the classic load-factor-0.7 expectation.
    """

    kind = "hash"
    OPS_PER_ENTRY = 3.0  # expected probes per insert

    def __init__(self, nnodes: int, nchannels: int = 4) -> None:
        super().__init__(nnodes, nchannels)
        self._pending_nodes: list[np.ndarray] = []
        self._pending_values: list[np.ndarray] = []

    def accumulate(self, nodes: np.ndarray, values: np.ndarray) -> None:
        nodes, values = self._check(nodes, values)
        if nodes.size == 0:
            return
        self._pending_nodes.append(nodes)
        self._pending_values.append(values)
        self.stats.entries += nodes.size
        self.stats.ops += self.OPS_PER_ENTRY * nodes.size

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        if not self._pending_nodes:
            self.stats.unique_nodes = 0
            return (
                np.empty(0, dtype=np.int64),
                np.empty((self.nchannels, 0)),
            )
        nodes = np.concatenate(self._pending_nodes)
        values = np.concatenate(self._pending_values, axis=1)
        uniq, inverse = np.unique(nodes, return_inverse=True)
        summed = np.empty((self.nchannels, uniq.size))
        for c in range(self.nchannels):
            summed[c] = np.bincount(inverse, weights=values[c], minlength=uniq.size)
        self.stats.unique_nodes = uniq.size
        self.stats.memory_slots = max(
            self.stats.memory_slots, int(uniq.size * (self.nchannels + 1) / 0.7)
        )
        self._pending_nodes.clear()
        self._pending_values.clear()
        return uniq, summed


#: table class by kind
GHOST_TABLES = {cls.kind: cls for cls in (DirectAddressTable, HashGhostTable)}


def make_ghost_table(kind: str, nnodes: int, nchannels: int = 4) -> GhostTable:
    """Factory: ``kind`` is ``"direct"`` or ``"hash"``."""
    if kind not in GHOST_TABLES:
        raise ValueError(f"unknown ghost table kind {kind!r}; expected 'direct' or 'hash'")
    return GHOST_TABLES[kind](nnodes, nchannels)
