"""Structured exception taxonomy for the whole library.

Every error the runtime can *recover from or reason about* derives from
:class:`ReproError`, so drivers can distinguish "the environment
misbehaved" (:class:`FaultError` and friends — retry, shrink, restore)
from "the program is wrong" (plain ``ValueError`` / ``TypeError`` from
argument validation):

* :class:`FaultError` — injected or detected machine faults.

  * :class:`RankFailure` — a rank stopped responding; carries the dead
    rank, the iteration, and the phase in which detection happened.
    ``Simulation.run`` catches this and triggers automatic recovery.
  * :class:`MessageLost` — a message could not be delivered within the
    transport's retry budget.

* :class:`SimulationIntegrityError` — an invariant guard
  (:mod:`repro.util.guards`) found corrupted physics: lost particles,
  non-conserved charge, or NaN/Inf in state arrays.
* :class:`CheckpointError` — a checkpoint file is unusable (corrupt,
  truncated, wrong version).  Subclasses ``ValueError`` as well for
  backwards compatibility with callers that caught the old type.
* :class:`TelemetrySchemaError` — a telemetry file (metrics or service
  JSONL stream, Chrome trace) is malformed: torn, not UTF-8 JSON, or
  missing what its schema requires.  Also a ``ValueError``.
* :class:`InvalidRankError` — a rank index outside ``[0, p)`` reached a
  communication primitive.  Also a ``ValueError`` so pre-existing
  ``except ValueError`` call sites keep working.
* :class:`JobError` — a job in the multi-run service
  (:mod:`repro.service`) failed; carries the job name and attempt.

  * :class:`JobTimeout` — a job (or a watchdogged ``repro run``)
    exceeded its wall-clock budget and was stopped.

* :class:`CacheCorruption` — a result-cache entry failed its integrity
  check; the entry is quarantined and the job recomputed.

Every exception here is **picklable with its attributes intact** — the
job service ships errors across process boundaries, so classes with
custom constructor signatures override ``__reduce__``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FaultError",
    "RankFailure",
    "MessageLost",
    "SimulationIntegrityError",
    "CheckpointError",
    "TelemetrySchemaError",
    "InvalidRankError",
    "JobError",
    "JobTimeout",
    "CacheCorruption",
]


class ReproError(Exception):
    """Base class of every structured error raised by this library."""


class FaultError(ReproError):
    """A machine fault: injected by a fault plan or detected at runtime."""


class RankFailure(FaultError):
    """A rank stopped responding and was declared dead.

    Attributes
    ----------
    rank:
        The failed rank (numbered in the machine where it failed).
    iteration:
        Iteration at which the failure was detected (-1 outside a run).
    phase:
        Virtual-machine phase label active at detection time.
    """

    def __init__(self, rank: int, iteration: int = -1, phase: str = "default") -> None:
        self.rank = rank
        self.iteration = iteration
        self.phase = phase
        super().__init__(
            f"rank {rank} failed (detected at iteration {iteration}, phase {phase!r})"
        )

    def __reduce__(self):
        return (type(self), (self.rank, self.iteration, self.phase))


class MessageLost(FaultError):
    """A message exhausted the transport's retry budget."""

    def __init__(self, src: int, dst: int, attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(
            f"message {src} -> {dst} lost after {attempts} transmission attempts"
        )

    def __reduce__(self):
        return (type(self), (self.src, self.dst, self.attempts))


class SimulationIntegrityError(ReproError):
    """An invariant guard found corrupted physics state."""


class CheckpointError(ReproError, ValueError):
    """A file is not a valid repro checkpoint (corrupt, truncated, or
    missing required keys)."""


class TelemetrySchemaError(ReproError, ValueError):
    """A telemetry artifact does not conform to its schema."""


class InvalidRankError(ReproError, ValueError):
    """A destination or source rank index is outside ``[0, p)``."""


class JobError(ReproError):
    """A job in the multi-run service failed.

    Attributes
    ----------
    job:
        The job's display name (or config-hash prefix).
    attempt:
        Zero-based attempt number on which the failure happened.
    reason:
        Human-readable cause (worker traceback summary, fault kind, ...).
    """

    def __init__(self, job: str, reason: str, attempt: int = 0) -> None:
        self.job = job
        self.reason = reason
        self.attempt = attempt
        super().__init__(
            f"job {job!r} failed on attempt {attempt + 1}: {reason} "
            f"(inspect the batch report for the full failure log)"
        )

    def __reduce__(self):
        return (type(self), (self.job, self.reason, self.attempt))


class JobTimeout(JobError):
    """A job (or watchdogged run) exceeded its wall-clock budget.

    ``limit`` / ``elapsed`` are wall seconds; ``iteration`` is the last
    completed simulation iteration (-1 when unknown), so a supervisor
    can decide whether a checkpoint-based resume is worthwhile.
    """

    def __init__(
        self, job: str, limit: float, elapsed: float,
        iteration: int = -1, attempt: int = 0,
    ) -> None:
        self.limit = limit
        self.elapsed = elapsed
        self.iteration = iteration
        JobError.__init__(
            self,
            job,
            f"exceeded the {limit:g}s wall-clock limit after {elapsed:.3f}s "
            f"(last completed iteration {iteration}); raise --timeout or "
            f"shrink the job",
            attempt,
        )

    def __reduce__(self):
        return (
            type(self),
            (self.job, self.limit, self.elapsed, self.iteration, self.attempt),
        )


class CacheCorruption(ReproError):
    """A result-cache entry failed its integrity check.

    Raised (or recorded — readers usually quarantine and recompute
    instead of raising) when a cache file is unparseable, its stored
    digest does not match its payload, or its key does not match its
    location.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(
            f"cache entry {path} is corrupt: {reason}; the entry was "
            f"quarantined and the result will be recomputed"
        )

    def __reduce__(self):
        return (type(self), (self.path, self.reason))
