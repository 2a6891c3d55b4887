"""Per-phase, per-rank communication statistics.

The paper reports (Figures 18, 19) the *maximum amount of data* and the
*maximum number of messages* sent or received by any processor in the
scatter phase, per iteration.  :class:`CommStats` records exactly those
quantities: every communication call on the virtual machine logs per-rank
messages/bytes under the active phase label, and the simulation snapshots
an *epoch* (one iteration) at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import require

__all__ = ["PhaseComm", "CommStats"]


@dataclass
class PhaseComm:
    """Per-rank message/byte tallies for one phase label.

    Arrays all have length ``p`` (one slot per rank).
    """

    msgs_sent: np.ndarray
    msgs_recv: np.ndarray
    bytes_sent: np.ndarray
    bytes_recv: np.ndarray

    @classmethod
    def zeros(cls, p: int) -> "PhaseComm":
        """Return an all-zero record for ``p`` ranks."""
        return cls(
            msgs_sent=np.zeros(p, dtype=np.int64),
            msgs_recv=np.zeros(p, dtype=np.int64),
            bytes_sent=np.zeros(p, dtype=np.int64),
            bytes_recv=np.zeros(p, dtype=np.int64),
        )

    def copy(self) -> "PhaseComm":
        """Deep copy of the record."""
        return PhaseComm(
            self.msgs_sent.copy(),
            self.msgs_recv.copy(),
            self.bytes_sent.copy(),
            self.bytes_recv.copy(),
        )

    def add(self, other: "PhaseComm") -> None:
        """Accumulate ``other`` into this record."""
        self.msgs_sent += other.msgs_sent
        self.msgs_recv += other.msgs_recv
        self.bytes_sent += other.bytes_sent
        self.bytes_recv += other.bytes_recv

    # -- the quantities the paper plots ---------------------------------
    @property
    def max_msgs(self) -> int:
        """Maximum number of messages sent or received by any rank."""
        return int(max(self.msgs_sent.max(initial=0), self.msgs_recv.max(initial=0)))

    @property
    def max_bytes(self) -> int:
        """Maximum data volume sent or received by any rank, in bytes."""
        return int(max(self.bytes_sent.max(initial=0), self.bytes_recv.max(initial=0)))

    @property
    def total_bytes(self) -> int:
        """Total bytes sent across all ranks."""
        return int(self.bytes_sent.sum())

    @property
    def total_msgs(self) -> int:
        """Total messages sent across all ranks."""
        return int(self.msgs_sent.sum())

    def to_dict(self) -> dict:
        """The paper's reported quantities as a JSON-serializable dict."""
        return {
            "msgs": self.total_msgs,
            "bytes": self.total_bytes,
            "max_msgs": self.max_msgs,
            "max_bytes": self.max_bytes,
        }


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
        record = self._get(phase)
        record.msgs_sent[src] += 1
        record.bytes_sent[src] += nbytes
        record.msgs_recv[dst] += 1
        record.bytes_recv[dst] += nbytes

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
            self._get(phase).add(PhaseComm(msgs_sent, msgs_recv, bytes_sent, bytes_recv))

    def record_collective(self, phase: str, nbytes_per_rank: np.ndarray) -> None:
        """Log a collective where each rank contributes ``nbytes_per_rank``.

        Counted as one logical message per rank in each direction.
        """
        record = self._get(phase)
        contrib = np.asarray(nbytes_per_rank, dtype=np.int64)
        require(contrib.shape == (self.p,), "nbytes_per_rank must have one slot per rank")
        record.msgs_sent += 1
        record.msgs_recv += 1
        record.bytes_sent += contrib
        record.bytes_recv += int(contrib.sum())

    def phase(self, name: str) -> PhaseComm:
        """Return the accumulated record for phase ``name`` (zeros if unseen)."""
        return self._phases.get(name, PhaseComm.zeros(self.p)).copy()

    def phases(self) -> list[str]:
        """Names of all phases with recorded traffic."""
        return sorted(self._phases)

    def snapshot_epoch(self) -> dict[str, PhaseComm]:
        """Return all tallies since the last snapshot, then reset them."""
        snap = {name: record.copy() for name, record in self._phases.items()}
        self._phases.clear()
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
            name: {
                "msgs_sent": record.msgs_sent.tolist(),
                "msgs_recv": record.msgs_recv.tolist(),
                "bytes_sent": record.bytes_sent.tolist(),
                "bytes_recv": record.bytes_recv.tolist(),
            }
            for name, record in self._phases.items()
        }

    def load_state(self, state: dict) -> None:
        """Restore tallies from a :meth:`state_dict` snapshot (exact)."""
        self._phases.clear()
        for name, record in state.items():
            arrays = {
                key: np.asarray(record[key], dtype=np.int64)
                for key in ("msgs_sent", "msgs_recv", "bytes_sent", "bytes_recv")
            }
            for key, arr in arrays.items():
                require(arr.shape == (self.p,), f"stats {name}/{key} must have length p={self.p}")
            self._phases[name] = PhaseComm(**arrays)
