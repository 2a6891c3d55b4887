"""Deterministic fault injection for the virtual parallel machine.

A :class:`FaultPlan` schedules machine faults by ``(iteration, phase,
rank)`` — the same coordinates the paper's runtime measurements use — and
a :class:`FaultInjector` applies them at the communication choke points
every exchange already flows through (:meth:`VirtualMachine.exchange`
/ :meth:`~VirtualMachine.alltoallv`, :meth:`~VirtualMachine.allgather`,
:meth:`~VirtualMachine.allreduce`, and therefore the ghost, halo,
migration and redistribution traffic built on them).

Fault kinds
-----------
``kill``
    Rank ``rank`` stops responding at iteration ``iteration`` (first
    matching communication).  Survivors block for ``detect_timeout``
    virtual seconds (charged under phase ``"recovery"``), then a
    :class:`~repro.util.errors.RankFailure` is raised.  The simulation
    driver catches it and recovers (shrink + restore, see
    ``Simulation.run``).
``drop``
    A matching message's first ``count`` transmissions are lost.  The
    transport retries with exponential backoff: each attempt charges the
    full message cost to both endpoints plus a backoff wait
    (``retry_timeout * 2**attempt``), and the retransmission is recorded
    in the communication statistics, so the recovery overhead is visible
    in ``vm.elapsed()`` and the per-phase comm stats.  More than
    ``max_retries`` consecutive losses raise
    :class:`~repro.util.errors.MessageLost`.  The payload is delivered
    intact — a drop never changes physics, only cost.
``duplicate``
    A matching message is transmitted twice; the receiver deduplicates
    by sequence number.  One extra message (cost + statistics) at both
    endpoints; payload delivered once.
``corrupt``
    A matching message arrives with a bad checksum; the receiver NACKs
    (an 8-byte control message) and the sender retransmits.  Extra cost
    and statistics for both; the delivered payload is intact.
``poison``
    An *undetectable* corruption (checksum collision): the delivered
    payload really is damaged (first float becomes NaN).  This is what
    the invariant guards (:mod:`repro.util.guards`) exist to catch —
    with guards off it would silently poison the physics.
``slowdown``
    Rank ``rank`` runs ``factor``x slower for ``count`` iterations
    starting at ``iteration`` (``count=0`` means "for the rest of the
    run") — every compute/communication charge to that rank is scaled.
    This is the per-rank cost drift the SAR policy reacts to.

With no plan installed (``vm.fault_injector is None``) every hook is a
single dormant branch: accounting is bit-identical to a build without
fault machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.util.errors import FaultError, MessageLost, RankFailure
from repro.util.validation import require

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS"]

#: Supported fault kinds.
FAULT_KINDS = ("kill", "drop", "duplicate", "corrupt", "poison", "slowdown")

#: Kinds that target messages (matched by src/dst/phase/iteration).
_MESSAGE_KINDS = ("drop", "duplicate", "corrupt", "poison")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``rank`` names the victim of ``kill``/``slowdown``; message faults
    filter by ``src``/``dst`` instead (``None`` matches any rank).
    ``iteration=None`` matches every iteration (``kill`` fires
    immediately); ``phase=None`` matches every phase.  ``count`` is the
    number of consecutive lost transmissions for ``drop`` and the
    duration in iterations for ``slowdown`` (0 = until the run ends).
    """

    kind: str
    rank: int | None = None
    src: int | None = None
    dst: int | None = None
    iteration: int | None = None
    phase: str | None = None
    count: int = 1
    factor: float = 2.0

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS, f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.kind in ("kill", "slowdown"):
            require(self.rank is not None and self.rank >= 0,
                    f"{self.kind} event needs a victim rank >= 0")
        if self.kind == "slowdown":
            require(self.factor >= 1.0, f"slowdown factor must be >= 1, got {self.factor}")
            require(self.count >= 0, "slowdown count must be >= 0")
        if self.kind == "drop":
            require(self.count >= 1, "drop count must be >= 1")

    # ------------------------------------------------------------------
    def matches_message(self, iteration: int, phase: str, src: int, dst: int) -> bool:
        """Does this (message-kind) event hit the given message?"""
        return (
            (self.iteration is None or self.iteration == iteration)
            and (self.phase is None or self.phase == phase)
            and (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
        )

    def slowdown_active(self, iteration: int) -> bool:
        """Is this slowdown event active at ``iteration``?"""
        start = 0 if self.iteration is None else self.iteration
        if iteration < start:
            return False
        return self.count == 0 or iteration < start + self.count

    def to_dict(self) -> dict:
        """JSON-serializable form (defaults omitted)."""
        out: dict = {"kind": self.kind}
        for name in ("rank", "src", "dst", "iteration", "phase"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.count != 1:
            out["count"] = self.count
        if self.kind == "slowdown":
            out["factor"] = self.factor
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        known = {"kind", "rank", "src", "dst", "iteration", "phase", "count", "factor"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault event keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ValueError("fault event needs a 'kind'")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults plus the transport's recovery
    parameters (all virtual seconds).

    ``retry_timeout`` is the base backoff wait before a retransmission
    (doubled per consecutive loss); ``detect_timeout`` is how long
    survivors block before declaring a silent rank dead;
    ``max_retries`` bounds consecutive retransmissions of one message.
    """

    events: tuple[FaultEvent, ...] = ()
    retry_timeout: float = 2.0e-3
    detect_timeout: float = 5.0e-2
    max_retries: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        require(self.retry_timeout >= 0, "retry_timeout must be >= 0")
        require(self.detect_timeout >= 0, "detect_timeout must be >= 0")
        require(self.max_retries >= 0, "max_retries must be >= 0")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "retry_timeout": self.retry_timeout,
            "detect_timeout": self.detect_timeout,
            "max_retries": self.max_retries,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from :meth:`to_dict` output / a faults.json dict."""
        known = {"retry_timeout", "detect_timeout", "max_retries", "events"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        events = tuple(FaultEvent.from_dict(e) for e in data.get("events", ()))
        return cls(
            events=events,
            retry_timeout=float(data.get("retry_timeout", 2.0e-3)),
            detect_timeout=float(data.get("detect_timeout", 5.0e-2)),
            max_retries=int(data.get("max_retries", 3)),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the CLI's ``--fault-plan``)."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"fault plan {path} must contain a JSON object")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def survivor_plan(self, dead_rank: int) -> "FaultPlan":
        """The plan as seen by the shrunk machine after ``dead_rank`` died.

        The fired kill event is removed; every remaining rank reference
        above ``dead_rank`` shifts down by one (survivors are renumbered
        compactly); events that only targeted the dead rank are dropped.
        """

        def remap(r: int | None) -> int | None:
            if r is None:
                return None
            return r - 1 if r > dead_rank else r

        events = []
        for ev in self.events:
            if ev.kind in ("kill", "slowdown") and ev.rank == dead_rank:
                continue
            if ev.kind in _MESSAGE_KINDS and (ev.src == dead_rank or ev.dst == dead_rank):
                continue
            events.append(
                FaultEvent(
                    kind=ev.kind,
                    rank=remap(ev.rank),
                    src=remap(ev.src),
                    dst=remap(ev.dst),
                    iteration=ev.iteration,
                    phase=ev.phase,
                    count=ev.count,
                    factor=ev.factor,
                )
            )
        return FaultPlan(
            events=tuple(events),
            retry_timeout=self.retry_timeout,
            detect_timeout=self.detect_timeout,
            max_retries=self.max_retries,
        )


def _poison_payload(payload):
    """Damage a payload copy the way an undetected bit flip would: the
    first float of every float array becomes NaN.  Integer arrays (node
    ids, particle ids) are left alone so the damage is to *values*, not
    to addressing."""
    if isinstance(payload, np.ndarray):
        if payload.dtype.kind == "f" and payload.size:
            out = payload.copy()
            out.reshape(-1)[0] = np.nan
            return out
        return payload
    if isinstance(payload, tuple):
        return tuple(_poison_payload(x) for x in payload)
    if isinstance(payload, list):
        return [_poison_payload(x) for x in payload]
    return payload


class FaultInjector:
    """Applies a :class:`FaultPlan` on one :class:`VirtualMachine`.

    The simulation driver advances :attr:`iteration` once per step; the
    machine's communication primitives call the ``pre_exchange`` /
    ``on_message`` / ``on_collective`` / ``scale_charge`` hooks.  The
    injector is deliberately stateless apart from which kills have fired
    — fault schedules are deterministic functions of (iteration, phase,
    src, dst).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.iteration = 0
        #: ranks declared dead (kills that fired)
        self.dead: set[int] = set()
        self._kills = [e for e in plan.events if e.kind == "kill"]
        self._slowdowns = [e for e in plan.events if e.kind == "slowdown"]
        self._message_events = [e for e in plan.events if e.kind in _MESSAGE_KINDS]

    # ------------------------------------------------------------------
    def set_iteration(self, iteration: int) -> None:
        """Advance the fault clock (called once per simulation step)."""
        self.iteration = iteration

    @property
    def watches_messages(self) -> bool:
        """Whether :meth:`on_message` can do anything (an exchange then
        hands it every message; otherwise none is looked at)."""
        return bool(self._message_events)

    # ------------------------------------------------------------------
    # hooks called by the virtual machine
    # ------------------------------------------------------------------
    def pre_exchange(self, vm) -> None:
        """Fire due kills; raise :class:`RankFailure` if a peer is dead.

        Survivors block ``detect_timeout`` virtual seconds (charged to
        every rank under phase ``"recovery"``) before the failure is
        declared — that is the price of detection, and it stays on the
        clock through recovery.
        """
        if not (self._kills or self.dead):
            return
        it = self.iteration
        phase = vm.current_phase
        fired = [
            e
            for e in self._kills
            if (e.iteration is None or it >= e.iteration)
            and (e.phase is None or e.phase == phase)
            and e.rank not in self.dead
        ]
        for e in fired:
            if e.rank >= vm.p:
                raise FaultError(
                    f"kill event targets rank {e.rank} but the machine has p={vm.p}"
                )
            self.dead.add(e.rank)
        if self.dead:
            with vm.phase("recovery"):
                vm.charge_comm_seconds(self.plan.detect_timeout)
            raise RankFailure(min(self.dead), it, phase)

    def on_message(self, vm, phase: str, src: int, dst: int, payload, nbytes: int,
                   extra_seconds: np.ndarray):
        """Apply message faults to one (src, dst) message.

        Accumulates per-rank recovery cost into ``extra_seconds``,
        records retransmissions in the comm statistics, and returns the
        payload actually delivered (a damaged copy for ``poison``).
        """
        it = self.iteration
        model = vm.model
        for ev in self._message_events:
            if not ev.matches_message(it, phase, src, dst):
                continue
            if ev.kind == "drop":
                attempts = ev.count
                if attempts > self.plan.max_retries:
                    raise MessageLost(src, dst, attempts + 1)
                wait = sum(self.plan.retry_timeout * 2.0**i for i in range(attempts))
                cost = wait + attempts * model.message_cost(nbytes)
                extra_seconds[src] += cost
                extra_seconds[dst] += cost
                for _ in range(attempts):
                    vm.stats.record_message(phase, src, dst, nbytes)
            elif ev.kind == "duplicate":
                cost = model.message_cost(nbytes)
                extra_seconds[src] += cost
                extra_seconds[dst] += cost
                vm.stats.record_message(phase, src, dst, nbytes)
            elif ev.kind == "corrupt":
                cost = model.message_cost(8) + model.message_cost(nbytes)
                extra_seconds[src] += cost
                extra_seconds[dst] += cost
                vm.stats.record_message(phase, dst, src, 8)  # the NACK
                vm.stats.record_message(phase, src, dst, nbytes)  # retransmit
            elif ev.kind == "poison":
                payload = _poison_payload(payload)
        return payload

    def on_collective(self, vm, phase: str, nbytes_total: int) -> float:
        """Extra per-rank cost of transport faults during a collective.

        Each matching drop/duplicate/corrupt event costs one extra tree
        round (the stage is repeated); poison is not modeled for
        collectives (reductions re-verify on the host).
        """
        it = self.iteration
        extra = 0.0
        for ev in self._message_events:
            if ev.kind == "poison":
                continue
            if (ev.iteration is None or ev.iteration == it) and (
                ev.phase is None or ev.phase == phase
            ):
                extra += vm.model.collective_cost(vm.p, nbytes_total)
        return extra

    def scale_charge(self, seconds: np.ndarray, kind: str, phase: str) -> np.ndarray:
        """Apply active per-rank slowdowns to a charge vector."""
        it = self.iteration
        scaled = None
        for ev in self._slowdowns:
            if not ev.slowdown_active(it):
                continue
            if ev.phase is not None and ev.phase != phase:
                continue
            if ev.rank >= seconds.shape[0]:
                continue
            if scaled is None:
                scaled = np.array(seconds, dtype=float)
            scaled[ev.rank] *= ev.factor
        return seconds if scaled is None else scaled

    def __repr__(self) -> str:
        return (
            f"FaultInjector(events={len(self.plan.events)}, "
            f"iteration={self.iteration}, dead={sorted(self.dead)})"
        )
