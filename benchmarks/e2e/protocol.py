"""The run protocol: one fresh process, one workload, one result.

A *run* warms up with one untimed pass at a tenth of the workload's
iterations, then makes a fixed number of identical timed *passes* — each
on a fresh object built from the same plan, ``gc.collect()`` before each,
GC left on — and reports the median over passes.  Peak RSS is read after
the passes and before the cold-start children that measure ``setup_s``
are spawned.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.e2e.metrics import END_TO_END
from benchmarks.e2e.workloads import (
    Checks,
    Plan,
    check_batch,
    check_invariants,
    expected_invariants,
    generate,
    run_pass,
    scratch_dir,
    sim_pass,
)

__all__ = [
    "ROOT",
    "RESULTS_DIR",
    "THREAD_VARS",
    "DEFAULT_SECONDS",
    "PASSES",
    "COLD_STARTS",
    "environment",
    "child_env",
    "adopt_orphans",
    "stop_children",
    "passes_for",
    "check_passes",
    "setup_seconds",
    "peak_rss_mb",
    "measure",
    "write_json",
]

ROOT = Path(__file__).resolve().parents[2]
#: results of ``run``/``trace``/``aa`` and Chrome traces; not committed
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: pinned to 1 before NumPy loads so BLAS/OpenMP pools never join in
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: ``--seconds`` when none is given; ``run_seconds`` in BENCHMARK.json: about
#: what the timed passes of a run take on the build host (19-38 s by workload)
DEFAULT_SECONDS = 25
#: timed passes of one run.  Fixed, never budgeted by the clock: the median
#: must be over the same count on a slow host as on a fast one.
PASSES = {"fig17_dynamic": 5, "table2_p128": 5, "fig17_workers2": 5, "batch_mixed": 4}
COLD_STARTS = {"full": 7, "tiny": 1}


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # never look above
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(plan: Plan, seed: int, load_start: float) -> dict:
    """Where and how a result was measured."""
    import numpy

    (engine,) = {job.config.get("engine", "flat") for job in plan.jobs}
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "engine": engine,
        "workers": 2 if plan.service else plan.workers,
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg()[0],
    }


def child_env() -> dict:
    """Environment of a child interpreter: both import roots, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env.update({var: "1" for var in THREAD_VARS})
    return env


def adopt_orphans() -> None:
    """Make this process the one its orphaned descendants are handed to.

    A cold-start child that dies mid-way would otherwise leave its worker
    pool to init, out of :func:`stop_children`'s reach.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):  # not Linux: orphans go to init as before
        pass


def _children() -> list[int]:
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # gone while we looked
            if fields[1] == me:
                found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started; return when each has ended.

    The first ``SharedMemory`` block a ``workers=2`` simulation creates starts
    multiprocessing's resource tracker, a daemon that only notices its
    parent's exit *after* the exit; it is told to stop here and waited for.
    Anything else still alive is there because a pass failed; it is killed.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    try:
        getattr(tracker, "_stop", lambda: None)()  # closes its pipe, then waitpid
    except (OSError, ChildProcessError):
        pass
    while True:
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:  # no child left
            return


def peak_rss_mb() -> float:
    """Max-RSS of this process plus the largest reaped child, in MiB."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def passes_for(workload: str, seconds: float, scale: str) -> int:
    """How many passes a run of ``--seconds`` makes: a count, not a stopwatch.

    :data:`PASSES` at the default length and never fewer; a longer
    ``--seconds`` buys proportionally more.
    """
    if scale == "tiny":
        return 1
    return max(PASSES[workload], int(PASSES[workload] * seconds / DEFAULT_SECONDS))


def check_passes(checks: Checks, plan: Plan, passes: list, expected: list[dict]) -> None:
    """The per-pass correctness checks, every pass, every job."""
    for result in passes:
        checks.op(True, "pass")
        if plan.service:
            check_batch(checks, plan, result)
        elif plan.workers:
            checks.op(result.degraded is None, f"workers fell back: {result.degraded}")
        for job, state, want in zip(plan.jobs, result.final_states, expected):
            if state is not None:  # a job without a result already failed check_batch
                check_invariants(checks, job, state, want)
    checks.op(
        len({result.vm_s for result in passes}) == 1,
        f"vm_s differs across passes: {[result.vm_s for result in passes]}",
    )


def _check_workers_parity(checks: Checks, warmup: Plan, warm_result) -> None:
    """A sharded warm-up must be bit-equal to an in-process warm-up."""
    from dataclasses import replace

    reference = sim_pass(replace(warmup, workers=0))
    checks.op(
        reference.final_states == warm_result.final_states and reference.vm_s == warm_result.vm_s,
        "workers=2 warm-up is not bit-equal to the in-process warm-up",
    )


def setup_seconds(workload: str, seed: int, scale: str, count: int) -> list[float]:
    """Wall of ``count`` fresh interpreters: spawn -> import -> ready -> exit."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "coldstart",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]  # fmt: skip
    walls = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(command, cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        walls.append(perf_counter() - t0)
    return walls


def measure(workload: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """One untraced run of ``workload``: every end-to-end metric."""
    load_start = os.getloadavg()[0]
    plan = generate(workload, seed, scale)
    checks = Checks()
    workdir = scratch_dir()
    try:
        expected = [expected_invariants(job) for job in plan.jobs]
        warmup = plan.shortened()
        warm_result = run_pass(warmup, workdir)
        if plan.workers:
            _check_workers_parity(checks, warmup, warm_result)
        passes = []
        for _ in range(passes_for(workload, seconds, scale)):
            gc.collect()
            passes.append(run_pass(plan, workdir))
        rss = peak_rss_mb()  # before the cold-start children are reaped
        setups = setup_seconds(workload, seed, scale, COLD_STARTS[scale])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_passes(checks, plan, passes, expected)
    wall = statistics.median(result.wall for result in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ns_per_particle_step": wall / plan.particle_steps * 1e9,
        "vm_s": passes[0].vm_s,
        "peak_rss_mb": rss,
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": False,
        "passes": len(passes),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END},
        "pass_walls": [result.wall for result in passes],
        "setup_walls": setups,
        "ops_attempted": checks.attempted,
        "ops_failed": checks.failed,
        "failures": checks.failures,
        "environment": environment(plan, seed, load_start),
    }


def write_json(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
