"""Per-phase, per-rank communication statistics.

The paper reports (Figures 18, 19) the *maximum amount of data* and the
*maximum number of messages* sent or received by any processor in the
scatter phase, per iteration.  :class:`CommStats` records exactly those
quantities: every communication call on the virtual machine logs per-rank
messages/bytes under the active phase label, and the simulation snapshots
an *epoch* (one iteration) at a time.  A phase's tallies are one
``(4, p)`` int64 block: each record, copy, sum and reduction is one pass.
"""

from __future__ import annotations

import numpy as np

from repro.util import require

__all__ = ["PhaseComm", "CommStats"]


class PhaseComm:
    """Per-rank message/byte tallies for one phase label: a ``(4, p)``
    int64 :attr:`block` whose rows (:attr:`ROWS`) are the views below."""

    ROWS = ("msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv")

    __slots__ = ("block",)

    def __init__(self, block: np.ndarray) -> None:
        self.block = block

    msgs_sent = property(lambda self: self.block[0])
    msgs_recv = property(lambda self: self.block[1])
    bytes_sent = property(lambda self: self.block[2])
    bytes_recv = property(lambda self: self.block[3])

    @classmethod
    def zeros(cls, p: int) -> "PhaseComm":
        """Return an all-zero record for ``p`` ranks."""
        return cls(np.zeros((4, p), dtype=np.int64))

    def copy(self) -> "PhaseComm":
        """Deep copy of the record."""
        return PhaseComm(self.block.copy())

    def add(self, other: "PhaseComm") -> None:
        """Accumulate ``other`` into this record."""
        self.block += other.block

    # -- the quantities the paper plots ---------------------------------
    @property
    def max_msgs(self) -> int:
        """Maximum number of messages sent or received by any rank."""
        return int(self.block[:2].max(initial=0))

    @property
    def max_bytes(self) -> int:
        """Maximum data volume sent or received by any rank, in bytes."""
        return int(self.block[2:].max(initial=0))

    @property
    def total_bytes(self) -> int:
        """Total bytes sent across all ranks."""
        return int(self.block[2].sum())

    @property
    def total_msgs(self) -> int:
        """Total messages sent across all ranks."""
        return int(self.block[0].sum())

    def to_dict(self) -> dict:
        """The paper's reported quantities as a JSON-serializable dict."""
        msgs, nbytes = self.block[::2].sum(axis=1).tolist()
        max_msgs, max_bytes = self.block.reshape(2, -1).max(axis=1, initial=0).tolist()
        return {"msgs": msgs, "bytes": nbytes, "max_msgs": max_msgs, "max_bytes": max_bytes}


class CommStats:
    """Accumulates :class:`PhaseComm` records keyed by phase label.

    Use :meth:`snapshot_epoch` to pop the tallies accumulated since the
    previous snapshot — the simulation calls it once per iteration so
    per-iteration series (Figures 17–19) can be assembled.
    """

    def __init__(self, p: int) -> None:
        require(p >= 1, f"p must be >= 1, got {p}")
        self.p = p
        self._phases: dict[str, PhaseComm] = {}

    def _get(self, phase: str) -> PhaseComm:
        record = self._phases.get(phase)
        if record is None:
            record = PhaseComm.zeros(self.p)
            self._phases[phase] = record
        return record

    def record_message(self, phase: str, src: int, dst: int, nbytes: int) -> None:
        """Log one point-to-point message of ``nbytes`` from ``src`` to ``dst``."""
        require(0 <= src < self.p and 0 <= dst < self.p, "rank out of range")
        require(nbytes >= 0, "nbytes must be >= 0")
        self._get(phase).block[(0, 1, 2, 3), (src, dst, src, dst)] += (1, 1, nbytes, nbytes)

    def record_exchange(
        self,
        phase: str,
        msgs_sent: np.ndarray,
        msgs_recv: np.ndarray,
        bytes_sent: np.ndarray,
        bytes_recv: np.ndarray,
    ) -> None:
        """Log one exchange's per-rank totals (length-``p`` arrays), the sum
        of its :meth:`record_message` calls; no traffic leaves no record."""
        if msgs_sent.any():
            self._get(phase).block += (msgs_sent, msgs_recv, bytes_sent, bytes_recv)

    def record_collective(self, phase: str, nbytes_per_rank: np.ndarray) -> None:
        """Log a collective where each rank contributes ``nbytes_per_rank``.

        Counted as one logical message per rank in each direction: every
        rank sends its contribution and receives the total.
        """
        contrib = np.asarray(nbytes_per_rank, dtype=np.int64)
        require(contrib.shape == (self.p,), "nbytes_per_rank must have one slot per rank")
        record = self._get(phase)
        record.block += ((1,), (1,), (0,), (int(contrib.sum()),))
        record.block[2] += contrib

    def phase(self, name: str) -> PhaseComm:
        """Return the accumulated record for phase ``name`` (zeros if unseen)."""
        return self._phases.get(name, PhaseComm.zeros(self.p)).copy()

    def phases(self) -> list[str]:
        """Names of all phases with recorded traffic."""
        return sorted(self._phases)

    def snapshot_epoch(self) -> dict[str, PhaseComm]:
        """Hand over all tallies since the last snapshot and start afresh."""
        snap, self._phases = self._phases, {}
        return snap

    def reset(self) -> None:
        """Discard all accumulated tallies."""
        self._phases.clear()

    # ------------------------------------------------------------------
    # state export / import (exact-resume checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of all per-phase tallies."""
        return {
            name: dict(zip(PhaseComm.ROWS, record.block.tolist()))
            for name, record in self._phases.items()
        }

    def load_state(self, state: dict) -> None:
        """Restore tallies from a :meth:`state_dict` snapshot (exact)."""
        self._phases.clear()
        for name, record in state.items():
            block = np.array([record[key] for key in PhaseComm.ROWS], dtype=np.int64)
            require(block.shape == (4, self.p), f"stats {name} must be 4 rows of length p={self.p}")
            self._phases[name] = PhaseComm(block)
