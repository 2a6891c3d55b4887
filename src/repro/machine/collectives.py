"""Higher-level communication patterns built on the virtual machine.

These are the reusable schedules the PIC phases and the redistribution
algorithms share:

* :func:`alltoall_concat` — all-to-many exchange followed by per-rank
  concatenation of received arrays (particle migration, sorted merges).
* :func:`exchange_by_destination` — split a per-rank array by a
  destination map and deliver the pieces (one call = the paper's
  ``All-to-many_COMM`` on a send-list table).
* :func:`exchange_by_destination_pooled` — the same exchange driven from
  one flat pool of rows with segment offsets instead of ``p`` per-rank
  arrays: a single stable ``argsort`` over ``src * p + dest`` keys
  replaces the per-rank sorts, producing byte-identical messages (and
  therefore identical machine statistics and charges).
"""

from __future__ import annotations

import numpy as np

from repro.machine.virtual import VirtualMachine
from repro.util import require
from repro.util.errors import InvalidRankError


def _check_destinations(dest: np.ndarray, p: int, *, who: str) -> None:
    """Raise a typed error naming the offending destination ranks.

    ``np.take``-based bucketing would otherwise wrap negative ranks and
    mis-deliver silently; every exchange validates up front instead.
    """
    if dest.size == 0:
        return
    bad = (dest < 0) | (dest >= p)
    if bad.any():
        idx = np.flatnonzero(bad)
        examples = ", ".join(
            f"row {i}: dest {dest[i]}" for i in idx[:3]
        )
        raise InvalidRankError(
            f"{who}: destination out of range [0, {p}) "
            f"for {idx.size} row(s) ({examples})"
        )

__all__ = [
    "alltoall_concat",
    "exchange_by_destination",
    "exchange_by_destination_pooled",
]


def alltoall_concat(
    vm: VirtualMachine,
    send: list[dict[int, np.ndarray]],
) -> list[np.ndarray]:
    """All-to-many exchange returning, per rank, the received arrays
    concatenated in source-rank order.

    Empty receives produce a zero-length array matching the dtype of any
    payload sent anywhere (or float64 if the whole exchange is empty).
    """
    recv = vm.alltoallv(send)
    template = None
    for chunks in send:
        for payload in chunks.values():
            template = payload
            break
        if template is not None:
            break
    out: list[np.ndarray] = []
    for dst in range(vm.p):
        parts = [recv[dst][src] for src in sorted(recv[dst])]
        if parts:
            out.append(np.concatenate(parts))
        elif template is not None:
            out.append(np.empty((0,) + template.shape[1:], dtype=template.dtype))
        else:
            out.append(np.empty(0, dtype=np.float64))
    return out


def exchange_by_destination(
    vm: VirtualMachine,
    arrays: list[np.ndarray],
    destinations: list[np.ndarray],
) -> list[np.ndarray]:
    """Route each element of each rank's array to the rank named by
    ``destinations`` and return, per rank, the concatenation of what it
    received (source-rank order, stable within a source).

    ``arrays[r]`` and ``destinations[r]`` must have equal length;
    destination values must be valid ranks.
    """
    require(len(arrays) == vm.p and len(destinations) == vm.p, "need one array per rank")
    send: list[dict[int, np.ndarray]] = []
    for r in range(vm.p):
        arr = np.asarray(arrays[r])
        dest = np.asarray(destinations[r], dtype=np.int64)
        require(arr.shape[0] == dest.shape[0], f"rank {r}: array/destination length mismatch")
        _check_destinations(dest, vm.p, who=f"exchange_by_destination rank {r}")
        chunks: dict[int, np.ndarray] = {}
        if dest.size:
            order = np.argsort(dest, kind="stable")
            sorted_dest = dest[order]
            sorted_arr = arr[order]
            uniq, starts = np.unique(sorted_dest, return_index=True)
            bounds = np.append(starts, dest.size)
            for i, d in enumerate(uniq):
                chunks[int(d)] = sorted_arr[bounds[i] : bounds[i + 1]]
        send.append(chunks)
    return alltoall_concat(vm, send)


def exchange_by_destination_pooled(
    vm: VirtualMachine,
    rows: np.ndarray,
    destinations: np.ndarray,
    offsets: np.ndarray,
) -> list[np.ndarray]:
    """Pooled form of :func:`exchange_by_destination`.

    Parameters
    ----------
    rows:
        ``(n, ...)`` pooled payload rows, rank-segment ordered: rank
        ``r``'s rows are ``rows[offsets[r]:offsets[r + 1]]``.
    destinations:
        int64 destination rank per row, aligned with ``rows``.
    offsets:
        Segment boundaries, length ``vm.p + 1``.

    Returns
    -------
    list of numpy.ndarray
        Per destination rank, the received rows concatenated in
        source-rank order (stable within a source) — exactly what
        :func:`exchange_by_destination` returns for the equivalent
        per-rank inputs, with identical messages on the machine.
    """
    rows = np.asarray(rows)
    destinations = np.asarray(destinations, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    require(offsets.shape[0] == vm.p + 1, "offsets must have p + 1 entries")
    require(
        rows.shape[0] == destinations.shape[0] == offsets[-1],
        "rows/destinations must cover the pooled segments",
    )
    _check_destinations(destinations, vm.p, who="exchange_by_destination_pooled")
    send: list[dict[int, np.ndarray]] = [dict() for _ in range(vm.p)]
    if destinations.size:
        src = np.repeat(np.arange(vm.p, dtype=np.int64), np.diff(offsets))
        # One stable sort over (src, dest) keys: within a source segment
        # every key shares the src term, so the order among that source's
        # rows matches the per-rank stable sort by destination alone.
        key = src * vm.p + destinations
        order = np.argsort(key, kind="stable")
        sorted_key = key.take(order)
        sorted_rows = rows.take(order, axis=0)
        uniq, starts = np.unique(sorted_key, return_index=True)
        bounds = np.append(starts, key.size)
        for i, k in enumerate(uniq):
            s, d = divmod(int(k), vm.p)
            send[s][d] = sorted_rows[bounds[i] : bounds[i + 1]]
    return alltoall_concat(vm, send)
