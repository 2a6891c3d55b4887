"""Workload generation, the timed pass of each workload, and its checks.

``generate`` is the only place inputs come from: a workload name, a seed
and a scale give a :class:`Plan` of plain config dicts, and the program
under test sees nothing else.  A *pass* builds a fresh object from the
plan and does the plan's full work once; the run protocol in
:mod:`benchmarks.e2e.protocol` decides how many passes a run makes.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from benchmarks.e2e.metrics import JOB_NAMES, WORKLOADS

__all__ = [
    "SCALES",
    "WORK_DIR",
    "scratch_dir",
    "Job",
    "Plan",
    "PassResult",
    "Checks",
    "generate",
    "run_pass",
    "sim_pass",
    "batch_pass",
    "job_specs",
    "make_schedulers",
    "expected_invariants",
    "check_invariants",
    "check_batch",
    "cold_start",
]

SCALES = ("full", "tiny")

#: scratch space of a run (batch caches, telemetry streams): inside the
#: checkout, one directory per process, removed when the run ends
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: relative tolerance of the conservation checks
_RTOL = 1e-9


@dataclass(frozen=True)
class Job:
    name: str
    config: dict  #: ``SimulationConfig`` fields, ``config_from_dict`` input
    iterations: int

    @property
    def particle_steps(self) -> int:
        return self.iterations * int(self.config["nparticles"])


@dataclass(frozen=True)
class Plan:
    workload: str
    jobs: tuple[Job, ...]
    workers: int = 0  #: ``Simulation(..., workers=)`` (in-process workloads)
    service: bool = False  #: run the jobs through ``repro.service.Scheduler``

    @property
    def particle_steps(self) -> int:
        return sum(job.particle_steps for job in self.jobs)

    def shortened(self, factor: int = 10) -> "Plan":
        """The same plan at ``1/factor`` of its iterations (warm-up)."""
        return replace(
            self,
            jobs=tuple(
                replace(job, iterations=max(2, job.iterations // factor)) for job in self.jobs
            ),
        )


def scratch_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_DIR))


def generate(workload: str, seed: int, scale: str = "full") -> Plan:
    """The plan of ``workload``; ``seed`` is the only source of variation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    tiny = scale == "tiny"
    fig17 = dict(
        nx=32 if tiny else 128,
        ny=16 if tiny else 64,
        nparticles=2048 if tiny else 32768,
        p=4 if tiny else 32,
        seed=int(seed),
    )
    if workload in ("fig17_dynamic", "fig17_workers2"):
        config = dict(fig17, distribution="irregular", scheme="hilbert", policy="dynamic", vth=0.08)
        job = Job(workload, config, 10 if tiny else 200)
        return Plan(workload, (job,), workers=2 if workload == "fig17_workers2" else 0)
    if workload == "table2_p128":
        config = dict(
            nx=64 if tiny else 256,
            ny=32 if tiny else 128,
            nparticles=4096 if tiny else 65536,
            p=16 if tiny else 128,
            seed=int(seed),
            distribution="irregular",
            scheme="hilbert",
            policy="dynamic",
        )
        return Plan(workload, (Job(workload, config, 6 if tiny else 36),))
    variants = {
        "periodic2_hot": dict(distribution="irregular", policy="periodic:2", vth=0.3),
        "eulerian_es": dict(
            distribution="uniform",
            movement="eulerian",
            partitioning="grid",
            field_solver="electrostatic",
            ghost_table="direct",
        ),
        "modern_yee": dict(distribution="irregular", kernel="modern"),
        "snake_dynamic": dict(distribution="irregular", scheme="snake", policy="dynamic"),
    }
    iterations = 4 if tiny else 24
    jobs = tuple(Job(name, dict(fig17, **variants[name]), iterations) for name in JOB_NAMES)
    return Plan(workload, jobs, service=True)


# ----------------------------------------------------------------------
# correctness checks (invariants of the run, never golden values)
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Tally of operations attempted and failed in one run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def expected_invariants(job: Job) -> dict:
    """What a run of ``job`` must conserve, read off its initial particles."""
    from repro.pic.simulation import Simulation, config_from_dict

    sim = Simulation(config_from_dict(job.config))
    initial = sim.initial_particles
    return {
        "n_particles": int(initial.n),
        "total_charge": float(initial.q.sum()),
        "deposited_charge": float((initial.q * initial.w).sum()),
        "cell_area": float(sim.grid.dx * sim.grid.dy),
    }


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= _RTOL * max(abs(reference), 1e-300)


def check_invariants(checks: Checks, job: Job, final_state: dict, expected: dict) -> None:
    """Particle count, charge and deposited charge conserved; state finite."""
    tag = f"{job.name}:"
    checks.op(
        final_state["n_particles"] == expected["n_particles"],
        f"{tag} particle count {final_state['n_particles']} != {expected['n_particles']}",
    )
    checks.op(
        _close(final_state["total_charge"], expected["total_charge"]),
        f"{tag} total charge {final_state['total_charge']!r} drifted from "
        f"{expected['total_charge']!r}",
    )
    deposited = final_state["rho_sum"] * expected["cell_area"]
    checks.op(
        _close(deposited, expected["deposited_charge"]),
        f"{tag} deposited charge {deposited!r} != {expected['deposited_charge']!r}",
    )
    # every entry is a sum over the whole state, so one NaN/inf anywhere
    # in the particles or fields makes its sum non-finite
    checks.op(
        all(math.isfinite(float(v)) for v in final_state.values()),
        f"{tag} non-finite state {final_state}",
    )
    checks.op(
        final_state["iteration"] == job.iterations,
        f"{tag} stopped at iteration {final_state['iteration']} of {job.iterations}",
    )


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall: float  #: seconds of the timed region, as the clock read them
    vm_s: float  #: virtual seconds, summed over jobs
    final_states: list[dict]  #: one per job, plan order
    cold: dict | None = None  #: cold batch report (service plans)
    warm: dict | None = None  #: warm batch report (service plans)
    degraded: dict | None = None  #: multicore fallback marker (must stay None)


def sim_pass(plan: Plan) -> PassResult:
    """Fresh ``Simulation`` from the plan's config; time ``run(N)``."""
    from repro.pic.simulation import Simulation, config_from_dict

    (job,) = plan.jobs
    with Simulation(config_from_dict(job.config), workers=plan.workers) as sim:
        t0 = perf_counter()
        result = sim.run(job.iterations)
        wall = perf_counter() - t0
    return PassResult(wall, result.total_time, [result.final_state], degraded=result.degraded)


def job_specs(plan: Plan) -> list:
    """The plan's jobs as the service's ``JobSpec`` list."""
    from repro.service import expand_jobs

    return expand_jobs(
        [
            {"name": job.name, "config": dict(job.config), "iterations": job.iterations}
            for job in plan.jobs
        ]
    )


def make_schedulers(directory: Path):
    """A cold and a warm ``Scheduler`` sharing one (still empty) cache."""
    from repro.service import Scheduler

    return tuple(
        Scheduler(workers=2, cache=directory / "cache", obs_dir=directory / f"obs-{tag}")
        for tag in ("cold", "warm")
    )


def batch_pass(plan: Plan, workdir: Path) -> PassResult:
    """Submit the batch to a fresh cache, then submit it again warm."""
    specs = job_specs(plan)
    directory = Path(tempfile.mkdtemp(prefix="batch-", dir=workdir))
    try:
        cold_scheduler, warm_scheduler = make_schedulers(directory)
        t0 = perf_counter()
        cold = cold_scheduler.run(specs)
        warm = warm_scheduler.run(specs)
        wall = perf_counter() - t0
        _attach_cache_digests(directory / "cache", cold)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    done = [job for job in cold["jobs"] if job.get("totals")]
    return PassResult(
        wall,
        vm_s=sum(job["totals"]["total_time"] for job in done),
        final_states=[job.get("final_state") for job in cold["jobs"]],
        cold=cold,
        warm=warm,
    )


def _attach_cache_digests(cache_dir: Path, cold: dict) -> None:
    """Stamp each cold job with the digest of its integrity-checked cache entry.

    The cold run wrote the entry and the warm run was served from it, so
    a digest here plus equal report summaries is "warm payload == cold
    payload" without reaching into the scheduler's private records.
    """
    from repro.service import ResultCache, payload_digest

    cache = ResultCache(cache_dir)
    for job in cold["jobs"]:
        payload = cache.get(job["key"])
        job["cache_digest"] = payload_digest(payload) if payload is not None else None


def check_batch(checks: Checks, plan: Plan, result: PassResult) -> None:
    """All jobs done without a retry; the warm pass is 4/4 identical hits."""
    from repro.service import canonical_json

    cold, warm = result.cold, result.warm
    njobs = len(plan.jobs)
    for job in cold["jobs"]:
        checks.op(job["state"] == "done", f"{job['name']}: cold state {job['state']}")
    checks.op(cold["counters"]["retries"] == 0, f"cold retries {cold['counters']['retries']}")
    checks.op(
        warm["counters"]["cache_hits"] == njobs and all(j["cached"] for j in warm["jobs"]),
        f"warm cache hits {warm['counters']['cache_hits']}/{njobs}",
    )

    def served(report: dict) -> str:
        return canonical_json(
            [[job["key"], job.get("totals"), job.get("final_state")] for job in report["jobs"]]
        )

    checks.op(
        all(job["cache_digest"] for job in cold["jobs"]) and served(cold) == served(warm),
        "warm payloads differ from the cold payloads",
    )


def run_pass(plan: Plan, workdir: Path) -> PassResult:
    """One pass of ``plan``, whichever kind it is."""
    if plan.service:
        return batch_pass(plan, workdir)
    return sim_pass(plan)


# ----------------------------------------------------------------------
# cold start (runs in a fresh child interpreter, see protocol.setup_seconds)
# ----------------------------------------------------------------------
def cold_start(workload: str, seed: int, scale: str) -> None:
    """Import ``repro`` and build the workload's ready object, then drop it."""
    plan = generate(workload, seed, scale)
    if plan.service:
        directory = scratch_dir()
        try:
            job_specs(plan)
            make_schedulers(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return
    from repro.pic.simulation import Simulation, config_from_dict

    Simulation(config_from_dict(plan.jobs[0].config), workers=plan.workers).close()
