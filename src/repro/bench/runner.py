"""Execute registered cases: warmup, repeats, and observable collection.

Timing uses ``time.perf_counter`` around the case body only (setup is
untimed).  Garbage collection is paused during timed sections so a
collection triggered by an earlier case cannot be billed to a later one.
Peak RSS comes from ``resource.getrusage`` where available (Linux
reports KiB; macOS bytes are normalized to KiB) for the bench process
plus its reaped children (``RUSAGE_CHILDREN``).
"""

from __future__ import annotations

import gc
import sys
import time

from repro.bench.core import BenchCase, BenchObservation, BenchResult, SuiteResult

__all__ = ["peak_rss_kb", "run_case", "run_suite"]


def peak_rss_kb() -> int | None:
    """Peak resident-set size in KiB across the process tree, or ``None``.

    ``RUSAGE_SELF`` covers the bench process (shard threads included),
    ``RUSAGE_CHILDREN`` already-reaped children (their maxima fold in at
    wait time).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-posix
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)


def run_case(
    case: BenchCase,
    *,
    repeats: int | None = None,
    warmup: int | None = None,
) -> BenchResult:
    """Run one case with warmup + repeats and collect its observables.

    The observation (vm time, op counts) is taken from the final timed
    repeat; wall-clock statistics cover all timed repeats.
    """
    repeats = case.repeats if repeats is None else repeats
    warmup = case.warmup if warmup is None else warmup
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    context = case.setup() if case.setup is not None else None
    for _ in range(warmup):
        case.fn(context)
    samples: list[float] = []
    observation = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            observation = case.fn(context)
            samples.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    if not isinstance(observation, BenchObservation):
        observation = BenchObservation()
    return BenchResult(
        name=case.name,
        tier=case.tier,
        repeats=repeats,
        warmup=warmup,
        wall_samples=samples,
        vm_seconds=observation.vm_seconds,
        op_counts=dict(observation.op_counts),
        peak_rss_kb=peak_rss_kb(),
        extra=dict(observation.extra),
    )


def run_suite(
    suite: str,
    cases: list[BenchCase],
    *,
    repeats: int | None = None,
    warmup: int | None = None,
    progress=None,
    walltime: float | None = None,
) -> SuiteResult:
    """Run every case of a suite (in registration order).

    ``progress`` is an optional ``callable(case_name)`` invoked before
    each case — the CLI uses it for live status lines.

    ``walltime`` (host seconds, default off) is the suite watchdog:
    before each case the elapsed wall-clock is checked, and on expiry a
    :class:`~repro.util.errors.JobTimeout` is raised whose ``partial``
    attribute holds the :class:`SuiteResult` of the cases that did
    complete — the CLI saves it so a timed-out CI run still yields a
    usable (if incomplete) trajectory.
    """
    results = []
    t0 = time.monotonic()
    for case in cases:
        if walltime is not None and (elapsed := time.monotonic() - t0) >= walltime:
            from repro.util.errors import JobTimeout

            exc = JobTimeout(f"bench suite {suite!r}", walltime, elapsed)
            exc.partial = SuiteResult(suite=suite, results=results)
            exc.remaining = [c.name for c in cases[len(results):]]
            raise exc
        if progress is not None:
            progress(case.name)
        results.append(run_case(case, repeats=repeats, warmup=warmup))
    return SuiteResult(suite=suite, results=results)
