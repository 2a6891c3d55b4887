"""Shard-thread execution backend for the pooled PIC phases.

Runs the era stepper's two compiled particle passes over contiguous rank
ranges of the in-process :class:`~repro.particles.arrays.ParticlePool`,
one call per phase, on a team of helper threads parked inside the
compiled library.  Worker parallelism is an *execution detail*:
virtual-machine accounting, comm statistics, RNG streams, checkpoints,
and telemetry are computed on the calling thread exactly as in-process
execution computes them, so results are bit-identical for every worker
count (DESIGN.md §5.5).

Entry point: :func:`create_backend`, wired through
``Simulation(config, workers=N)`` / ``repro run --workers N``.
"""

from repro.parallel_exec.backend import FlatBackend, create_backend, resolve_workers

__all__ = ["FlatBackend", "create_backend", "resolve_workers"]
