"""The virtual machine: ranks, virtual clocks, and cost charging.

:class:`VirtualMachine` hosts ``p`` virtual ranks.  SPMD phase code runs
rank-by-rank inside one Python process on real NumPy data; the machine
advances per-rank *virtual clocks* according to the two-level cost model
and logs message traffic in :class:`repro.machine.stats.CommStats`.

Execution is bulk-synchronous: communication calls end in a barrier by
default, so elapsed virtual time is the sum over phases of the slowest
rank's cost — matching the paper's §4 analysis, where every phase bound
is ``max`` over processors of compute + communication.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.machine.batch import MessageBatch
from repro.machine.model import MachineModel
from repro.machine.stats import CommStats
from repro.util import require
from repro.util.errors import InvalidRankError
from repro.util.opcount import OpCounter

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """A ``p``-rank virtual distributed-memory machine.

    Parameters
    ----------
    p:
        Number of virtual processors.
    model:
        Cost model; defaults to :meth:`MachineModel.cm5`.
    strict_ops:
        Raise on charging an op category the model has no weight for,
        instead of the model's warn-once-and-charge-1.0 default.  Wired
        from ``SimulationConfig(guards="strict")``.

    Attributes
    ----------
    clocks:
        Per-rank virtual clocks in seconds.
    compute_time, comm_time:
        Cumulative per-rank compute / communication charges (used to
        split "computation" from "overhead" like Figures 21–22).
    stats:
        The :class:`CommStats` ledger of message traffic.
    ops:
        An :class:`~repro.util.opcount.OpCounter` of all abstract
        operations charged (summed over ranks, keyed by category) —
        the machine-independent work record the bench harness exports.
    """

    def __init__(
        self, p: int, model: MachineModel | None = None, *, strict_ops: bool = False
    ) -> None:
        require(p >= 1, f"p must be >= 1, got {p}")
        self.p = p
        self.model = model if model is not None else MachineModel.cm5()
        self.strict_ops = bool(strict_ops)
        self.clocks = np.zeros(p)
        self.compute_time = np.zeros(p)
        self.comm_time = np.zeros(p)
        self.stats = CommStats(p)
        self.ops = OpCounter()
        self.phase_time: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(self.p))
        self._phase_stack: list[str] = []
        #: optional :class:`repro.machine.faults.FaultInjector`; ``None``
        #: (the default) keeps every hot path on a single dormant branch,
        #: so accounting is bit-identical to a machine without fault
        #: machinery.
        self.fault_injector = None
        #: optional :class:`repro.telemetry.spans.SpanTracer`; when set,
        #: :meth:`phase` reports each (phase, rank) clock interval to it.
        #: Like the fault injector, ``None`` (the default) leaves a single
        #: dormant branch on the phase path — the tracer only *observes*
        #: the clocks, it never charges them, so accounting is identical
        #: with and without it.
        self.tracer = None
        #: optional :class:`repro.obs.profile.PhaseProfiler`; when set,
        #: :meth:`phase` opens a host-wall-clock section per phase so
        #: kernel-level timings nest under their phase.  Same dormant
        #: contract as the tracer: ``None`` leaves a single ``is None``
        #: branch, and the profiler measures *host* time only — the
        #: virtual clocks and op counts are untouched either way.
        self.profiler = None

    def install_faults(self, plan) -> "VirtualMachine":
        """Attach a :class:`~repro.machine.faults.FaultPlan` (or injector).

        Passing ``None`` removes any installed injector.  Returns
        ``self`` for chaining.
        """
        from repro.machine.faults import FaultInjector, FaultPlan

        if plan is None:
            self.fault_injector = None
        elif isinstance(plan, FaultInjector):
            self.fault_injector = plan
        elif isinstance(plan, FaultPlan):
            self.fault_injector = FaultInjector(plan)
        else:
            raise TypeError(f"expected FaultPlan or FaultInjector, got {type(plan).__name__}")
        return self

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        """Label under which costs/statistics are currently recorded."""
        return self._phase_stack[-1] if self._phase_stack else "default"

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope costs and statistics under phase ``name``.

        With a tracer attached the per-rank clock values at entry and
        exit are reported as one span per participating rank; the clocks
        themselves are never touched.
        """
        tracer = self.tracer
        start = self.clocks.copy() if tracer is not None else None
        profiler = self.profiler
        if profiler is not None:
            profiler.push(name)
        self._phase_stack.append(name)
        try:
            yield
        finally:
            depth = len(self._phase_stack)
            self._phase_stack.pop()
            if tracer is not None:
                tracer.record_phase(name, start, self.clocks, depth=depth)
            if profiler is not None:
                profiler.pop(name)

    # ------------------------------------------------------------------
    # time accounting
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Virtual seconds since construction (slowest rank's clock)."""
        return float(self.clocks.max())

    def barrier(self) -> None:
        """Synchronize all ranks to the slowest clock."""
        self.clocks[:] = self.clocks.max()

    def _charge(self, seconds: np.ndarray, *, kind: str) -> None:
        seconds = np.broadcast_to(np.asarray(seconds, dtype=float), (self.p,))
        if seconds.min() < 0:
            raise ValueError("cannot charge negative time")
        phase = self.current_phase
        if self.fault_injector is not None:
            seconds = self.fault_injector.scale_charge(seconds, kind, phase)
        self.clocks += seconds
        self.phase_time[phase] = self.phase_time[phase] + seconds
        if kind == "compute":
            self.compute_time += seconds
        elif kind == "comm":
            self.comm_time += seconds
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown charge kind {kind!r}")

    def charge_ops(self, category: str, counts: float | np.ndarray) -> None:
        """Charge per-rank computation: ``counts`` operations of ``category``.

        ``counts`` may be a scalar (same on every rank) or an array of
        length ``p``.
        """
        counts = np.broadcast_to(np.asarray(counts, dtype=float), (self.p,))
        self.ops.add(category, float(counts.sum()))
        self._charge(
            self.model.compute_cost(category, counts, strict=self.strict_ops), kind="compute"
        )

    def charge_compute_seconds(self, seconds: float | np.ndarray) -> None:
        """Charge pre-computed per-rank compute seconds."""
        self._charge(np.asarray(seconds, dtype=float), kind="compute")

    def charge_comm_seconds(self, seconds: float | np.ndarray) -> None:
        """Charge pre-computed per-rank communication seconds."""
        self._charge(np.asarray(seconds, dtype=float), kind="comm")

    # ------------------------------------------------------------------
    # point-to-point bulk exchange (the paper's All-to-many_COMM)
    # ------------------------------------------------------------------
    def alltoallv(
        self,
        send: list[dict[int, np.ndarray]],
        *,
        sync: bool = True,
    ) -> list[dict[int, np.ndarray]]:
        """Exchange per-destination buffers between all ranks.

        Parameters
        ----------
        send:
            ``send[src]`` maps destination rank to a NumPy array (or a
            tuple of arrays) to deliver.  Missing destinations mean "no
            message".  Self-sends are delivered for free (local copy) and
            do not appear in the statistics.
        sync:
            End with a barrier (default) — the bulk-synchronous semantics
            used by every PIC phase.

        Returns
        -------
        list of dict
            ``recv[dst]`` maps source rank to the delivered payload.

        Notes
        -----
        Payloads are handed over by reference; after the call the
        receiver owns them and senders must not mutate them.  Priced by
        :meth:`_exchange`, like :meth:`exchange`.
        """
        require(len(send) == self.p, f"send must have one entry per rank ({self.p})")
        src = [s for s, chunks in enumerate(send) for _ in chunks]
        dst = [d for chunks in send for d in chunks]
        payloads = [payload for chunks in send for payload in chunks.values()]
        nbytes = [0 if s == d else payload_nbytes(x) for s, d, x in zip(src, dst, payloads)]
        vectors = np.array((src, dst, nbytes), dtype=np.int64).reshape(3, -1)
        replaced = self._exchange(*vectors, payloads.__getitem__, sync)
        recv: list[dict[int, np.ndarray]] = [dict() for _ in range(self.p)]
        for i, (s, d) in enumerate(zip(src, dst)):
            recv[d][s] = replaced.get(i, payloads[i])
        return recv

    def exchange(self, batch: MessageBatch) -> MessageBatch:
        """``alltoallv(batch.to_dicts(p))`` — same messages, statistics and
        charges — priced on the batch's count vectors without touching a
        message.  Returns what was delivered: ``batch`` itself unless a
        fault damaged a payload.
        """
        replaced = self._exchange(batch.src, batch.dst, batch.nbytes(), batch.payload, True)
        return batch.replacing(replaced) if replaced else batch

    def _exchange(self, src, dst, nbytes, payload_at, sync: bool) -> dict:
        """The one pricing path: messages ``src[i] -> dst[i]`` of ``nbytes[i]``
        bytes cost each rank ``tau * (msgs_sent + msgs_recv) + mu *
        (bytes_out + bytes_in)`` — the paper's two-level model, both
        endpoints paying start-up — on ``bincount``s of the three vectors.

        Messages are looked at one by one (in source order, a source's in
        the order given) only when an installed fault injector schedules
        message faults — ``payload_at(i)`` goes to ``on_message`` and what
        comes back changed is returned as ``{i: payload}`` — or a
        destination is out of range (:class:`InvalidRankError` names the
        first).  Either way the statistics record exactly the messages
        delivered before an exception.
        """
        p = self.p
        injector = self.fault_injector
        extra_seconds = None
        if injector is not None:
            injector.pre_exchange(self)
            if injector.watches_messages:
                extra_seconds = np.zeros(p)
            else:
                injector = None  # no message fault scheduled: nothing to hand it
        phase = self.current_phase
        replaced: dict = {}
        counted = src != dst  # a self-send is a local copy: free, not a message
        in_range = dst.size == 0 or (dst.min() >= 0 and dst.max() < p)
        try:
            if injector is not None or not in_range:
                counted = np.zeros(src.size, dtype=bool)
                for i in np.argsort(src, kind="stable").tolist():
                    s, d = int(src[i]), int(dst[i])
                    if not 0 <= d < p:
                        raise InvalidRankError(f"destination rank {d} out of range [0, {p})")
                    if s != d:
                        if injector is not None:
                            payload = payload_at(i)
                            arrived = injector.on_message(
                                self, phase, s, d, payload, int(nbytes[i]), extra_seconds
                            )
                            if arrived is not payload:
                                replaced[i] = arrived
                        counted[i] = True
        finally:
            # also what was delivered before a MessageLost / bad rank
            if not counted.all():
                src, dst, nbytes = src[counted], dst[counted], nbytes[counted]
            msgs_out = np.bincount(src, minlength=p)
            msgs_in = np.bincount(dst, minlength=p)
            bytes_out = np.bincount(src, weights=nbytes, minlength=p).astype(np.int64)
            bytes_in = np.bincount(dst, weights=nbytes, minlength=p).astype(np.int64)
            self.stats.record_exchange(phase, msgs_out, msgs_in, bytes_out, bytes_in)
        seconds = self.model.tau * (msgs_out + msgs_in) + self.model.mu * (bytes_out + bytes_in)
        if extra_seconds is not None:
            seconds = seconds + extra_seconds
        self._charge(seconds, kind="comm")
        if sync:
            self.barrier()
        return replaced

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def allgather(self, values: list, *, nbytes_each: np.ndarray | None = None) -> list[list]:
        """Global concatenation: every rank receives ``[v_0, ..., v_{p-1}]``.

        ``nbytes_each`` overrides the payload-size estimate per rank.
        """
        require(len(values) == self.p, "values must have one entry per rank")
        if self.fault_injector is not None:
            self.fault_injector.pre_exchange(self)
        if nbytes_each is None:
            nbytes_each = np.array([payload_nbytes(v) for v in values], dtype=np.int64)
        else:
            nbytes_each = np.asarray(nbytes_each, dtype=np.int64)
        total = int(nbytes_each.sum())
        cost = self.model.collective_cost(self.p, total)
        if self.fault_injector is not None:
            cost += self.fault_injector.on_collective(self, self.current_phase, total)
        self.stats.record_collective(self.current_phase, nbytes_each)
        self._charge(np.full(self.p, cost), kind="comm")
        self.barrier()
        return [list(values) for _ in range(self.p)]

    def allreduce(self, arrays: list[np.ndarray], op: str = "sum") -> list[np.ndarray]:
        """Element-wise reduction across ranks; every rank gets the result.

        Supported ``op``: ``"sum"``, ``"max"``, ``"min"``.
        """
        require(len(arrays) == self.p, "arrays must have one entry per rank")
        if self.fault_injector is not None:
            self.fault_injector.pre_exchange(self)
        stack = [np.asarray(a) for a in arrays]
        shapes = {a.shape for a in stack}
        require(len(shapes) == 1, f"all ranks must contribute the same shape, got {shapes}")
        if op == "sum":
            result = np.sum(stack, axis=0)
        elif op == "max":
            result = np.max(stack, axis=0)
        elif op == "min":
            result = np.min(stack, axis=0)
        else:
            raise ValueError(f"unsupported reduction op {op!r}")
        nbytes = stack[0].nbytes
        cost = self.model.collective_cost(self.p, nbytes)
        if self.fault_injector is not None:
            cost += self.fault_injector.on_collective(self, self.current_phase, nbytes)
        self.stats.record_collective(self.current_phase, np.full(self.p, nbytes, dtype=np.int64))
        self._charge(np.full(self.p, cost), kind="comm")
        self.barrier()
        return [result.copy() for _ in range(self.p)]

    def allreduce_scalar(self, values: list[float], op: str = "sum") -> float:
        """Scalar reduction convenience wrapper around :meth:`allreduce`."""
        arrays = [np.asarray([v], dtype=float) for v in values]
        return float(self.allreduce(arrays, op=op)[0][0])

    # ------------------------------------------------------------------
    # state export / import (exact-resume checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the machine's mutable state.

        Covers the per-rank clocks, compute/comm splits, per-phase time
        tables, the :class:`CommStats` ledger, and the op counters —
        everything a checkpoint must round-trip for a resumed run to
        reproduce the uninterrupted one bit-for-bit.  Floats survive the
        JSON round trip exactly (``repr`` of a float64 is lossless).
        """
        return {
            "p": self.p,
            "clocks": self.clocks.tolist(),
            "compute_time": self.compute_time.tolist(),
            "comm_time": self.comm_time.tolist(),
            "phase_time": {name: t.tolist() for name, t in self.phase_time.items()},
            "stats": self.stats.state_dict(),
            "ops": self.ops.as_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore mutable state from a :meth:`state_dict` snapshot."""
        require(
            int(state["p"]) == self.p,
            f"machine state is for p={state['p']}, this machine has p={self.p}",
        )
        for name in ("clocks", "compute_time", "comm_time"):
            arr = np.asarray(state[name], dtype=float)
            require(arr.shape == (self.p,), f"{name} must have length p={self.p}")
            getattr(self, name)[:] = arr
        self.phase_time.clear()
        for name, values in state["phase_time"].items():
            arr = np.asarray(values, dtype=float)
            require(arr.shape == (self.p,), f"phase_time[{name!r}] must have length p={self.p}")
            self.phase_time[name] = arr
        self.stats.load_state(state["stats"])
        self.ops.load_dict(state["ops"])

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks cumulative time charged under each phase label."""
        return {name: float(t.max()) for name, t in self.phase_time.items()}

    def __repr__(self) -> str:
        return f"VirtualMachine(p={self.p}, model={self.model.name!r}, t={self.elapsed():.3f}s)"


def payload_nbytes(payload) -> int:
    """Best-effort wire size of a message payload in bytes.

    NumPy arrays report ``nbytes``; tuples/lists of arrays sum their
    members; other objects are charged 8 bytes per ``len`` item or a
    64-byte flat rate.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        total = 0
        for x in payload:
            if not isinstance(x, np.ndarray):
                return 8 * len(payload)
            total += x.nbytes
        return total
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    try:
        return 8 * len(payload)
    except TypeError:
        return 64
