"""Job model for the fault-tolerant multi-run service.

A *job* is one simulation run: a serialized
:class:`~repro.pic.simulation.SimulationConfig`, an iteration budget,
an optional fault plan (virtual-machine faults injected *inside* the
run), and an optional ``chaos`` block (OS-level sabotage of the worker
process itself — used by the chaos test-suite to kill or hang workers).

Every job has a content hash, :func:`job_key`: the sha256 of the
canonical JSON of everything that determines the result — the full
config (model constants included), the iteration count, and the fault
plan.  Two jobs with the same key produce bit-identical results, so the
key doubles as the result-cache address (:mod:`repro.service.cache`).
``chaos`` is deliberately *excluded* from the key: killing the worker
process does not change the result (the exact-resume contract of
DESIGN.md §5.2 makes the retried run land on the same bits), it only
changes how the scheduler had to get there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.pic.simulation import config_from_dict, config_to_dict
from repro.util import require

__all__ = [
    "JobSpec",
    "JobRecord",
    "JobState",
    "job_key",
    "canonical_json",
    "BATCH_SCHEMA",
]

#: Schema marker of batch-report documents (``repro jobs`` input).
BATCH_SCHEMA = "repro-batch/1"


class JobState:
    """Lifecycle states of a job inside the scheduler."""

    PENDING = "pending"  #: queued, not yet launched
    WAITING = "waiting"  #: failed attempt, waiting out its backoff delay
    RUNNING = "running"  #: a worker process is executing it
    DONE = "done"  #: completed (fresh run or cache hit)
    FAILED = "failed"  #: retry budget exhausted
    CANCELLED = "cancelled"  #: dropped by the circuit breaker


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, minimal separators.

    Both the job key and the cache integrity digest hash this form, so
    key-order differences in hand-written job files never split the
    cache.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class JobSpec:
    """One unit of work for the job service.

    Attributes
    ----------
    config:
        ``SimulationConfig`` in its dict form (:func:`config_to_dict`
        output or a hand-written subset; validated on construction).
    iterations:
        Iterations to run (>= 1).
    name:
        Display name in reports; defaults to a key prefix.
    priority:
        Higher runs earlier; ties keep submission order.
    fault_plan:
        Optional ``FaultPlan`` dict injected into the run's virtual
        machine (part of the job key — it changes the result).
    chaos:
        Optional worker sabotage, ``{"kind":
        "crash"|"hang"|"slow_start", "at_iteration": k, "seconds": s,
        "attempts": [0, ...]}`` — *not* part of the job key (it never
        changes the result, only the path to it).
    """

    config: dict
    iterations: int
    name: str = ""
    priority: int = 0
    fault_plan: dict | None = None
    chaos: dict | None = None

    def __post_init__(self) -> None:
        require(self.iterations >= 1, "job iterations must be >= 1")
        # validate eagerly so a typo'd sweep fails at submit, not in a
        # worker three retries deep
        cfg = config_from_dict(self.config)
        self.config = config_to_dict(cfg, full_model=True)
        if self.fault_plan is not None:
            from repro.machine.faults import FaultPlan

            self.fault_plan = FaultPlan.from_dict(self.fault_plan).to_dict()
        if self.chaos is not None:
            kind = self.chaos.get("kind")
            require(
                kind in ("crash", "hang", "slow_start"),
                f"chaos kind must be 'crash', 'hang', or 'slow_start', "
                f"got {kind!r}",
            )
        if not self.name:
            self.name = self.key[:12]

    @property
    def key(self) -> str:
        """The job's content hash (cache address); see :func:`job_key`."""
        return job_key(self)

    def to_dict(self) -> dict:
        out: dict = {
            "config": self.config,
            "iterations": self.iterations,
            "name": self.name,
            "priority": self.priority,
        }
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan
        if self.chaos is not None:
            out["chaos"] = self.chaos
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        known = {"config", "iterations", "name", "priority", "fault_plan", "chaos"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown job keys: {sorted(unknown)}")
        if "config" not in data or "iterations" not in data:
            raise ValueError("a job needs at least 'config' and 'iterations'")
        return cls(
            config=dict(data["config"]),
            iterations=int(data["iterations"]),
            name=str(data.get("name", "")),
            priority=int(data.get("priority", 0)),
            fault_plan=data.get("fault_plan"),
            chaos=data.get("chaos"),
        )


def job_key(spec: JobSpec) -> str:
    """sha256 over the canonical JSON of everything result-determining.

    The config is canonicalized through
    ``config_from_dict``/``config_to_dict`` (``full_model=True``) before
    hashing, so presets vs. spelled-out model constants, default-valued
    fields, and dict key order all collapse to one key.
    """
    payload = {
        "config": config_to_dict(config_from_dict(spec.config), full_model=True),
        "iterations": int(spec.iterations),
        "fault_plan": spec.fault_plan,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass
class JobRecord:
    """Mutable supervision state of one job inside a batch.

    The scheduler owns these; :meth:`to_dict` is what lands in the batch
    report (``repro jobs`` renders it).  ``payload`` holds the full
    result document (``SimulationResult.to_dict()``) for jobs that
    completed — reports keep only the totals/final-state summary.
    """

    spec: JobSpec
    state: str = JobState.PENDING
    attempt: int = 0  #: zero-based attempt currently/last running
    cached: bool = False  #: served from the result cache
    wall: float = 0.0  #: wall seconds across all attempts
    error: str | None = None  #: terminal failure message
    retries: list[dict] = field(default_factory=list)  #: per-retry log
    payload: dict | None = None  #: full result document (DONE only)
    resumed_from: int | None = None  #: checkpoint iteration a retry resumed at

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def name(self) -> str:
        return self.spec.name

    def to_dict(self) -> dict:
        cfg = self.spec.config
        out = {
            "name": self.name,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempt + (0 if self.state == JobState.PENDING else 1),
            "cached": self.cached,
            "wall": round(self.wall, 6),
            "priority": self.spec.priority,
            "iterations": self.spec.iterations,
            "config": {
                k: cfg.get(k)
                for k in ("nx", "ny", "nparticles", "p", "distribution", "seed")
            },
            "faulty": self.spec.fault_plan is not None,
            "retries": list(self.retries),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.resumed_from is not None:
            out["resumed_from"] = self.resumed_from
        if self.payload is not None:
            out["totals"] = self.payload.get("totals")
            out["final_state"] = self.payload.get("final_state")
        return out
