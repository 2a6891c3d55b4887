"""Worker-process side of the job service.

:func:`worker_main` is the target of each supervised process the
scheduler forks: it builds (or resumes) the simulation, makes **one**
``sim.run(remaining, on_iteration=...)`` call for the attempt, and
speaks a small message protocol back over its pipe::

    ("started",   {"pid": ..., "iteration": k})   # k > 0 on a resume
    ("heartbeat", {"iteration": k, "total": n,    # after every iteration
                   "imbalance": x})
    ("done",      {"payload": result.to_dict()})
    ("failed",    {"error": <picklable ReproError>})

Heartbeats are sent from ``run``'s ``on_iteration`` callback — after
each iteration the attempt completes for the first time, after its
checkpoint — so the run is set up once and its ``SimulationResult`` is
built once, at the end.  They double as progress reports (schema
``repro-service/2``): ``iteration``/``total`` give the live view its
progress bars and ``imbalance`` is the last-known max/mean particle
imbalance, computed from the already-materialized per-rank counts — an
O(p) read, never a simulation step.

The scheduler passes a *correlation* identity
(``{"batch_id", "job_id", "attempt"}``) that the worker stamps onto the
simulation, so the run's telemetry header, trace export, checkpoints,
and result document all join with the batch's service stream (DESIGN.md
§5.8).  With an observability directory the worker additionally enables
run telemetry and drops ``job-<id12>-a<attempt>.metrics.jsonl`` /
``.trace.json`` files next to the stream.

Progress is checkpointed (format v3, uncompressed: the scheduler deletes
the file when the job succeeds) to ``<workdir>/<key>.ck.npz`` every
``checkpoint_every`` iterations, so when the supervisor kills a hung
worker (or the worker crashes) the retry resumes from the last
checkpoint via the exact-resume contract — the completed job's result
is bit-identical to an uninterrupted run.

A job's ``chaos`` block sabotages the worker itself (the chaos suite's
fault injection at the *process* level, next to
:mod:`repro.machine.faults` at the *virtual machine* level):
``{"kind": "crash", "at_iteration": k, "attempts": [0]}`` SIGKILLs the
process before iteration ``k`` on the listed attempts; ``"hang"`` stops
heartbeating and sleeps until the supervisor's heartbeat timeout kills
it; ``{"kind": "slow_start", "seconds": s}`` sleeps *before* the
simulation is built, modelling an expensive construction/restore — the
supervisor must not count that window as heartbeat silence.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import replace
from pathlib import Path

from repro.core.metrics import load_imbalance
from repro.machine.faults import FaultPlan
from repro.pic.simulation import Simulation, config_from_dict
from repro.service.jobs import JobSpec, job_key
from repro.util.errors import JobError, ReproError

__all__ = ["worker_main", "scratch_checkpoint", "job_artifact_stem"]

#: Sleep horizon of a "hang" sabotage — far beyond any heartbeat budget.
_HANG_SECONDS = 3600.0


def scratch_checkpoint(workdir: str | Path, key: str) -> Path:
    """Location of a job's in-progress checkpoint in the batch workdir."""
    return Path(workdir) / f"{key}.ck.npz"


def job_artifact_stem(job_id: str, attempt: int) -> str:
    """File stem of one attempt's telemetry artifacts in the obs dir."""
    return f"job-{job_id[:12]}-a{int(attempt)}"


def _remaining_plan(plan_dict: dict | None, resume_iteration: int) -> FaultPlan | None:
    """The fault plan a resumed attempt should reinstall.

    Events strictly before the checkpoint iteration already fired and
    were folded into the checkpointed history (a recovered machine
    checkpoints in its shrunk form), so replaying them would double the
    fault.  Events at or after the resume point have not happened in the
    resumed timeline and fire normally.
    """
    if plan_dict is None:
        return None
    plan = FaultPlan.from_dict(plan_dict)
    if resume_iteration <= 0:
        return plan
    events = tuple(
        e
        for e in plan.events
        if e.iteration is None or e.iteration >= resume_iteration
    )
    return replace(plan, events=events)


def _maybe_sabotage(chaos: dict | None, iteration: int, attempt: int) -> None:
    """Apply the job's chaos block at its trigger point (tests only)."""
    if not chaos:
        return
    if attempt not in chaos.get("attempts", [0]):
        return
    if iteration != int(chaos.get("at_iteration", 0)):
        return
    if chaos["kind"] == "crash":
        # a real kill -9: no atexit, no cleanup, the pipe just goes EOF
        os.kill(os.getpid(), signal.SIGKILL)
    elif chaos["kind"] == "hang":
        time.sleep(_HANG_SECONDS)


def _last_imbalance(sim: Simulation) -> float | None:
    """Max/mean particle imbalance of the live decomposition (O(p))."""
    try:
        counts = sim.pic.pool.counts
        if counts.sum() == 0:
            return None
        return round(float(load_imbalance(counts)), 6)
    except Exception:  # noqa: BLE001 - progress decoration must never kill a job
        return None


def worker_main(
    conn,
    spec_dict: dict,
    workdir: str,
    checkpoint_every: int,
    attempt: int,
    correlation: dict | None = None,
    obs_dir: str | None = None,
) -> None:
    """Run one job attempt; every exit path sends a message (or dies loudly)."""
    spec = JobSpec.from_dict(spec_dict)
    label = spec.name
    ck = scratch_checkpoint(workdir, job_key(spec, checkpoint_every))
    try:
        chaos = spec.chaos
        if (
            chaos
            and chaos.get("kind") == "slow_start"
            and attempt in chaos.get("attempts", [0])
        ):
            # simulate an expensive Simulation build/restore: no message
            # has been sent yet, so this must not trip the heartbeat
            # watchdog (it only arms at the first message)
            time.sleep(float(chaos.get("seconds", 0.5)))
        if ck.exists():
            sim = Simulation.from_checkpoint(ck)
            plan = _remaining_plan(spec.fault_plan, sim.iteration)
        else:
            sim = Simulation(config_from_dict(spec.config))
            plan = FaultPlan.from_dict(spec.fault_plan) if spec.fault_plan else None
        if plan is not None:
            sim.install_faults(plan)
        if correlation is not None:
            sim.set_correlation(correlation)
        if obs_dir is not None:
            sim.enable_telemetry()
        conn.send(("started", {"pid": os.getpid(), "iteration": sim.iteration}))

        def sabotage() -> None:  # the chaos trigger fires *before* iteration sim.iteration
            if sim.iteration < spec.iterations:
                _maybe_sabotage(spec.chaos, sim.iteration, attempt)

        reported = sim.iteration

        def beat(_sim: Simulation) -> None:
            nonlocal reported
            if sim.iteration <= reported:  # a replay after rank-failure recovery
                return
            reported = sim.iteration
            body = {"iteration": reported, "total": spec.iterations, "imbalance": _last_imbalance(sim)}
            conn.send(("heartbeat", body))
            sabotage()

        sabotage()
        remaining = max(spec.iterations - sim.iteration, 0)
        result = sim.run(
            remaining, checkpoint_every=checkpoint_every, checkpoint_path=ck, on_iteration=beat
        )
        if obs_dir is not None and sim.telemetry is not None:
            stem = job_artifact_stem(
                correlation["job_id"] if correlation else spec.key, attempt
            )
            sim.telemetry.save_metrics(Path(obs_dir) / f"{stem}.metrics.jsonl")
            sim.telemetry.save_trace(Path(obs_dir) / f"{stem}.trace.json")
        sim.close()
        conn.send(("done", {"payload": result.to_dict()}))
    except ReproError as exc:
        conn.send(("failed", {"error": exc}))
    except Exception as exc:  # noqa: BLE001 - ship *everything* to the supervisor
        conn.send(
            ("failed", {"error": JobError(label, f"{type(exc).__name__}: {exc}", attempt)})
        )
    finally:
        conn.close()
