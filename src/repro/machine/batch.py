"""One exchange's messages as arrays.

A :class:`MessageBatch` is what the paper's scatter produces after
duplicate removal and coalescing: one message per ``(src, dst)`` pair,
all laid end to end in pooled arrays.  Ghost slots are numbered in
``(src, dst, node)`` order (:func:`repro.pic.deposition.ghost_slots_numpy`),
so the slot sums *are* the payloads; halo and gather replies are a
``take`` into the same layout.  Nothing cuts a batch into per-message
objects unless a fault injector must see one (:meth:`payload`) or a
test asks for the dict form (:meth:`to_dicts`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MessageBatch"]


@dataclass(frozen=True)
class MessageBatch:
    """Message ``i`` goes from rank ``src[i]`` to rank ``dst[i]`` and
    carries entries ``offsets[i]:offsets[i + 1]`` of the pooled ``ids``
    ``(k,)`` and / or ``values`` ``(ncomponents, k)``; at most one
    message per ``(src, dst)`` pair."""

    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray | None = None
    values: np.ndarray | None = None

    @classmethod
    def coalesce(cls, src, dst, ids=None, values=None) -> "MessageBatch":
        """One message per run of equal ``(src[k], dst[k])`` over entries
        that are already grouped by that pair."""
        first = np.ones(src.size, dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        starts = np.flatnonzero(first)
        return cls(src[starts], dst[starts], np.append(starts, src.size), ids, values)

    @property
    def counts(self) -> np.ndarray:
        """Entries per message."""
        return np.diff(self.offsets)

    def nbytes(self) -> np.ndarray:
        """Wire size of every message (ids and values, as :func:`payload_nbytes`)."""
        width = 0 if self.ids is None else self.ids.itemsize
        if self.values is not None:
            width += self.values.shape[0] * self.values.itemsize
        return self.counts * width

    def reply(self, values: np.ndarray) -> "MessageBatch":
        """The transposed batch: every receiver answers its sender with
        ``values`` ``(ncomponents, k)`` at the ids it was sent."""
        return MessageBatch(self.dst, self.src, self.offsets, self.ids, values)

    def payload(self, i: int):
        """Message ``i`` as views: ``(ids, values)``, or the one that exists."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        parts = tuple(a[..., lo:hi] for a in (self.ids, self.values) if a is not None)
        return parts if len(parts) == 2 else parts[0]

    def replacing(self, replaced: dict) -> "MessageBatch":
        """A copy in which message ``i`` carries ``replaced[i]`` (same
        shape as :meth:`payload`) — what a fault left of it."""
        out = MessageBatch(
            self.src,
            self.dst,
            self.offsets,
            None if self.ids is None else self.ids.copy(),
            None if self.values is None else self.values.copy(),
        )
        for i, payload in replaced.items():
            target = out.payload(i)
            if type(target) is not tuple:
                target, payload = (target,), (payload,)
            for view, new in zip(target, payload):
                view[...] = new
        return out

    def to_dicts(self, p: int, received: bool = False) -> list[dict]:
        """The ``p`` per-rank dicts :meth:`VirtualMachine.alltoallv` takes
        (``out[src][dst]``) or, with ``received``, returns (``out[dst][src]``)."""
        out: list[dict] = [dict() for _ in range(p)]
        outer, inner = (self.dst, self.src) if received else (self.src, self.dst)
        for i, (a, b) in enumerate(zip(outer.tolist(), inner.tolist())):
            out[a][b] = self.payload(i)
        return out
