"""The exactness matrix: one digest per configuration of everything a run produces.

``python -m tests.exactness_matrix --workers 0,2,3 [--numpy-kernels]``
prints, per row and worker count, the sha256 of the result document, the
per-rank particles, the ten field arrays and ``vm.state_dict()`` after
:data:`ITERATIONS` iterations.  A refactor that claims bit-identity is
checked by running this file against a checkout of the parent's ``src``
(``PYTHONPATH=<parent>/src``) and against the change *on the same host*
and comparing the two outputs (CI does so on every pull request,
against the base commit); no golden digests are committed because
particle and field bytes depend on the host's libm and NumPy SIMD paths.
A rank's particles are hashed as ``(n_r, 9)`` C-order float64 rows built
from the nine public attributes (ids as float64), not from any storage
method, so the digests mean the same on both sides of a change to how
particles are stored.

The rows in :data:`EXCHANGE_FAULTS` run under a fault plan aimed at the
particle and field-node exchanges of redistribution and adaptive
rebalancing (drops, duplicates and corrupt messages: costs and
statistics, never payloads, change).

The rows in :data:`OBSERVED` run with telemetry on and a batch
correlation stamped; their digest also covers the bytes of the metrics
JSONL stream and the Chrome trace the run exports, with the scratch
directory's path (checkpoint events name it) replaced by a placeholder.

The digests do not depend on the worker count: the ``degraded`` marker a
modern-kernel run records when ``workers`` is requested (the only
worker-dependent key of a result document and of a metrics header) is
left out of the hash.  ``tests/test_exactness_matrix.py`` pins that, and
that the tool is deterministic, on a few small rows.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.machine import FaultEvent, FaultPlan
from repro.pic import Simulation, SimulationConfig
from repro.util.errors import SimulationIntegrityError

__all__ = [
    "ROWS", "OBSERVED", "EXCHANGE_FAULTS", "MOVED_BOUNDS", "ITERATIONS", "digest", "main",
]  # fmt: skip

ITERATIONS = 12
_HALF = ITERATIONS // 2
_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
_BASE = dict(nx=32, ny=16, nparticles=2048, p=4, distribution="irregular", policy="dynamic", seed=3)
_P32 = dict(nx=64, ny=32, nparticles=4096, p=32)
_MODERN = dict(kernel="modern")
_KILL_AND_DROP = dict(
    detect_timeout=0.05,
    events=(
        FaultEvent(kind="kill", rank=2, iteration=5),
        FaultEvent(kind="drop", phase="scatter", iteration=3, src=1),
    ),
)
#: scenario -> fault plan of the rows that fault the rewritten exchanges
_EXCHANGE_PLANS = {
    "redistribution_faults": FaultPlan(
        events=tuple(
            FaultEvent(kind=kind, phase="redistribution") for kind in ("drop", "duplicate", "corrupt")
        )
    ),
    "adaptive_faults": FaultPlan(
        events=tuple(
            FaultEvent(kind=kind, phase=phase)
            for kind in ("drop", "duplicate")
            for phase in ("migration", "rebalance")
        )
    ),
}

#: row name -> (config overrides, scenario); the names are those recorded
#: under ``exactness`` in ``benchmarks/results/pr23_shard_threads.json``
ROWS: dict[str, tuple[dict, str]] = {
    "era_hash": ({}, "plain"),
    "era_direct": (dict(ghost_table="direct"), "plain"),
    "era_p1": (dict(p=1), "plain"),
    "era_p32_64x32": (_P32, "plain"),
    "era_eulerian": (dict(movement="eulerian", policy="static"), "plain"),
    "era_electrostatic": (dict(field_solver="electrostatic"), "plain"),
    "era_snake": (dict(scheme="snake"), "plain"),
    "era_periodic": (dict(policy="periodic:3"), "plain"),
    "era_uniform_static": (dict(distribution="uniform", policy="static"), "plain"),
    "era_guards": (dict(guards="strict"), "plain"),
    "era_adaptive_eulerian": (
        dict(movement="eulerian", partitioning="adaptive", policy="periodic:4"),
        "plain",
    ),
    "modern_hash": (_MODERN, "plain"),
    "modern_direct": (dict(_MODERN, ghost_table="direct"), "plain"),
    "modern_snake_p5": (dict(_MODERN, scheme="snake", p=5), "plain"),
    "era_direct_p32": (dict(_P32, ghost_table="direct"), "plain"),
    "era_eulerian_electrostatic": (
        dict(movement="eulerian", policy="static", field_solver="electrostatic"),
        "plain",
    ),
    "era_resumed": ({}, "resume"),
    "era_resumed_other_workers": ({}, "resume_other_workers"),
    "modern_resumed": (_MODERN, "resume"),
    "era_faultplan": (dict(p=6, policy="periodic:5"), "faults_checkpointed"),
    "era_faultplan_eulerian": (dict(p=6, movement="eulerian", policy="static"), "faults_salvaged"),
    "modern_faultplan": (dict(_MODERN, p=6, policy="periodic:5"), "faults_checkpointed"),
    "era_poison_scatter": (dict(guards="strict"), "poison"),
    # instants, counter tracks, a shrink and its rank lanes in the exports
    "era_observed_faultplan": (dict(p=6, policy="periodic:5"), "faults_checkpointed"),
    "modern_observed": (_MODERN, "plain"),
    "era_faults_in_redistribution": (dict(p=6, policy="periodic:3"), "redistribution_faults"),
    "era_adaptive_faults": (
        dict(movement="eulerian", partitioning="adaptive", policy="periodic:4"),
        "adaptive_faults",
    ),
    # rebalancing has moved the bounds by the checkpoint, so the resume
    # installs a decomposition other than the fresh one
    "era_adaptive_resumed": (
        dict(movement="eulerian", partitioning="adaptive", policy="periodic:4"),
        "resume",
    ),
}

#: rows run with telemetry on and a correlation stamped; their exports are hashed too
OBSERVED = ("era_observed_faultplan", "modern_observed")
#: rows whose fault plan targets the redistribution and rebalancing exchanges
EXCHANGE_FAULTS = ("era_faults_in_redistribution", "era_adaptive_faults")
#: rows that resume from a checkpoint whose decomposition bounds have moved
MOVED_BOUNDS = ("era_adaptive_resumed",)


def _build(factory, source, workers: int) -> Simulation:
    """``factory(source, workers=workers)`` without the degraded-mode warning."""
    with warnings.catch_warnings():
        # kernel="modern" runs in-process whatever ``workers`` says, and warns so
        warnings.simplefilter("ignore", RuntimeWarning)
        return factory(source, workers=workers)


def _run(name: str, workers: int, scratch: Path) -> tuple[Simulation, str | None]:
    """The finished simulation of row ``name`` and the error that ended it, if any."""
    overrides, scenario = ROWS[name]
    sim = _build(Simulation, SimulationConfig(**{**_BASE, **overrides}), workers)
    if name in OBSERVED:
        sim.set_correlation({"batch_id": "batch-exactness", "job_id": name, "attempt": 0})
        sim.enable_telemetry()
    checkpoint = scratch / f"{name}.npz"
    if scenario in ("resume", "resume_other_workers"):
        sim.run(_HALF, checkpoint_every=_HALF, checkpoint_path=checkpoint)
        sim.close()
        if scenario == "resume_other_workers":
            workers = 0 if workers else 2
        sim = _build(Simulation.from_checkpoint, checkpoint, workers)
        sim.run(ITERATIONS - _HALF)
    elif scenario == "faults_checkpointed":
        sim.install_faults(FaultPlan(**_KILL_AND_DROP))
        sim.run(ITERATIONS, checkpoint_every=4, checkpoint_path=checkpoint)
    elif scenario in _EXCHANGE_PLANS:
        sim.install_faults(_EXCHANGE_PLANS[scenario])
        sim.run(ITERATIONS)
    elif scenario == "faults_salvaged":
        sim.install_faults(FaultPlan(**_KILL_AND_DROP))
        sim.run(ITERATIONS)
    elif scenario == "poison":
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="poison", iteration=2, phase="scatter"),))
        )
        try:
            sim.run(ITERATIONS)
        except SimulationIntegrityError as exc:
            return sim, str(exc)
    else:
        sim.run(ITERATIONS)
    return sim, None


def _exports(sim: Simulation, scratch: Path) -> bytes:
    """The metrics JSONL and Chrome-trace JSON the run writes, minus ``degraded``."""
    lines = sim.telemetry.save_metrics(scratch / "exports.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header.pop("degraded", None)
    trace = sim.telemetry.save_trace(scratch / "exports.trace.json").read_text()
    text = "\n".join([json.dumps(header), *lines[1:], trace])
    return text.replace(str(scratch), "<scratch>").encode()


def _rows(parts) -> np.ndarray:
    """A rank's particles as ``(n_r, 9)`` C-order float64 rows."""
    names = ("x", "y", "ux", "uy", "uz", "q", "m", "w")
    columns = [getattr(parts, name) for name in names] + [parts.ids.astype(np.float64)]
    return np.stack(columns, axis=1)


def digest(name: str, workers: int = 0) -> str:
    """sha256 of everything row ``name`` leaves behind at ``workers`` shard threads."""
    with tempfile.TemporaryDirectory(prefix="exactness-") as scratch:
        sim, error = _run(name, workers, Path(scratch))
        exports = _exports(sim, Path(scratch)) if name in OBSERVED else b""
    try:
        document = sim.result().to_dict()
        document.pop("degraded", None)
        h = hashlib.sha256(exports)
        for part in (document, error, sim.vm.state_dict()):
            h.update(json.dumps(part, sort_keys=True).encode())
        for parts in sim.pic.particles:
            h.update(b"rank")
            h.update(_rows(parts).tobytes())
        for field in _FIELDS:
            h.update(getattr(sim.pic.fields, field).tobytes())
        return h.hexdigest()
    finally:
        sim.close()


def main(argv: list[str] | None = None) -> int:
    """Print ``row  workers  sha256`` for every row and worker count."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", default="0", help="comma-separated worker counts (default 0)")
    parser.add_argument(
        "--numpy-kernels", action="store_true", help="force the NumPy bodies of the particle kernels"
    )
    args = parser.parse_args(argv)
    if args.numpy_kernels:
        from repro import native

        native._loaded = (None, native.NativeStatus(False, "forced by --numpy-kernels"))
    for name in ROWS:
        for workers in map(int, args.workers.split(",")):
            print(f"{name:28s} workers={workers}  {digest(name, workers)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
