"""The paper's §6 as one command: ``python -m repro paper``.

Every table and figure of the evaluation (Tables 1-3, Figures 16-22) and
every ablation behind its §3-§5 claims is one *experiment*: a function of
the iteration ``scale`` (1 = the paper's lengths) returning a
:class:`Table`, the rendered rows plus a verdict per qualitative shape.
An experiment that needs only run totals or series is a generator: it
yields its runs as :class:`~repro.service.JobSpec` s and is sent their
payloads.  All those runs are one :class:`~repro.service.Scheduler`
batch over the result cache, so shared runs are paid once and a re-run
on an unchanged tree is all cache hits (job keys hash the code).  The
rest (cell imbalance, final per-rank counts, ghost tables, hand-built
steppers) run in-process.  A shape that fails is reported as not
reproduced, never loosened: the run exits 1, and ``check`` (which diffs
the blocks, verdicts included, against the doc) passes only while the
doc records it so.
"""

from __future__ import annotations

import difflib
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis import ascii_series, efficiency, format_table
from repro.core import ParticlePartitioner
from repro.core.alignment import bounding_box_area, ghost_node_counts, partner_counts
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.core.metrics import load_imbalance, particle_counts
from repro.machine import MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import gaussian_blob
from repro.particles.sort import KeyedBlock, parallel_sample_sort
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.ghost import make_ghost_table
from repro.pic.parallel_yee import ParallelYeePIC
from repro.service import JobSpec, Scheduler
from repro.workloads.replicated_mesh import ReplicatedMeshPIC
from repro.workloads.scenarios import (
    FIG16_CASES,
    FIG17_CASE,
    FIG20_CASE,
    TABLE2_CASES,
    scaled_iterations,
)

__all__ = ["EXPERIMENTS", "Table", "reproduce", "main"]

#: Seed of every run (the trends are not seed-sensitive; a fixed seed
#: makes reruns comparable).
SEED = 3

#: Thermal spread: warm enough that subdomains drift visibly in a run.
VTH = 0.08

#: Worker checkpoint cadence.  The service default of 2 spends about a
#: quarter of a 32 768-particle job's wall on checkpoints.
CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class Table:
    """One experiment's rendered rows and its ``(claim, reproduced)`` shapes."""

    text: str
    shapes: tuple[tuple[str, bool], ...]

    @property
    def reproduced(self) -> bool:
        return all(ok for _, ok in self.shapes)

    def render(self) -> str:
        verdicts = [f"shape {'reproduced' if ok else 'NOT REPRODUCED'}: {claim}"
                    for claim, ok in self.shapes]  # fmt: skip
        return "\n".join([self.text, "", *verdicts])


def _verdicts(text: str, *shapes: tuple[str, object]) -> Table:
    return Table(text, tuple((claim, bool(ok)) for claim, ok in shapes))


def _table(title: str, headers: list[str], rows: list, *shapes: tuple[str, object]) -> Table:
    return _verdicts(format_table(headers, rows, title=title), *shapes)


#: name -> experiment, in print order
EXPERIMENTS: dict = {}


def experiment(fn):
    """Register ``fn`` under its name."""
    EXPERIMENTS[fn.__name__] = fn
    return fn


def _job(name: str, iterations: int, **config) -> JobSpec:
    return JobSpec(config={"seed": SEED, "vth": VTH, **config}, iterations=iterations, name=name)


def _total(run: dict, key: str = "total_time"):
    return run["totals"][key]


def _run(iterations: int, **config) -> tuple[Simulation, object]:
    """An in-process run of the irregular 64x32, 8192-particle, 16-proc workload."""
    base = dict(nx=64, ny=32, nparticles=8192, p=16, distribution="irregular", seed=SEED, vth=VTH)
    sim = Simulation(SimulationConfig(**{**base, **config}))
    return sim, sim.run(iterations)


def _balance(sim: Simulation) -> float:
    return load_imbalance(particle_counts(sim.pic.particles).astype(float))


# ----------------------------------------------------------------------
# Table 1 and Figures 16-20
# ----------------------------------------------------------------------
@experiment
def table1(scale: float) -> Table:
    """Partitioning strategy x movement method, measured (irregular, 16 procs)."""
    iters = scaled_iterations(200, scale, minimum=20)
    rows = []
    for partitioning, movement in (("grid", "eulerian"), ("particle", "lagrangian"),
                                   ("independent", "lagrangian")):  # fmt: skip
        sim, result = _run(iters, partitioning=partitioning, movement=movement, policy="static")
        rows.append([f"{partitioning} + {movement}", sim.decomp.max_cell_imbalance(),
                     _balance(sim), result.total_time, result.overhead])  # fmt: skip
    grid, particle, independent = rows
    return _table(
        "Table 1 (empirical): partitioning strategy x movement method "
        f"(irregular, 16 procs, {iters} iterations)",
        ["strategy", "cell imbalance", "particle imbalance", "total time (s)", "overhead (s)"],
        rows,
        ("independent partitioning balances cells (< 1.1)", independent[1] < 1.1),
        ("particle partitioning unbalances cells (> 1.5)", particle[1] > 1.5),
        ("independent partitioning balances particles (< 1.1)", independent[2] < 1.1),
        ("grid partitioning unbalances particles (> 1.5)", grid[2] > 1.5),
        ("independent + lagrangian is fastest overall", independent[3] == min(r[3] for r in rows)),
    )


@experiment
def fig16(scale: float):
    """Total execution time, static vs periodic redistribution (32 procs)."""
    jobs = {}
    for case in FIG16_CASES:
        iters = scaled_iterations(case.iterations, scale, minimum=100)
        periods = [f"periodic:{k}" for k in (200, 100, 50, 25, 10, 5) if k <= iters // 2]
        for policy in ["static", *periods]:
            name = f"fig16 {case.name} {policy}"
            jobs[case.name, policy] = _job(name, iters, policy=policy, **case.config_kwargs())
    runs = yield jobs
    rows = [[case, policy, jobs[case, policy].iterations, _total(run),
             _total(run, "n_redistributions")] for (case, policy), run in runs.items()]  # fmt: skip
    static = {r[0]: r[3] for r in rows if r[1] == "static"}
    return _table(
        "Figure 16: total execution time, static vs periodic (32 procs, irregular)",
        ["case", "policy", "iters", "total time (s)", "#redis"],
        rows,
        ("every periodic policy beats static on every case",
         all(r[3] < static[r[0]] for r in rows if r[1] != "static")),
    )  # fmt: skip


def _series_figure(figure: int, series: str, label: str, *shapes):
    """Figures 17-19 each chart one series of the same two runs.

    ``shapes`` are ``(claim, test(static, periodic))`` over the two series.
    """

    def run(scale: float):
        iters = scaled_iterations(FIG17_CASE.iterations, scale, minimum=100)
        policies = ("static", "periodic:25")
        runs = yield {
            p: _job(f"fig17 {p}", iters, policy=p, **FIG17_CASE.config_kwargs()) for p in policies
        }
        static, periodic = (np.asarray(runs[p]["series"][series]) for p in policies)
        charts = [
            ascii_series(s.astype(float), label=f"Fig {figure} [{p}]: {label}")
            for p, s in zip(policies, (static, periodic))
        ]
        return _verdicts("\n\n".join(charts), *((c, test(static, periodic)) for c, test in shapes))

    run.__name__ = f"fig{figure}"
    return experiment(run)


_series_figure(
    17, "iteration_time", "execution time per iteration (s)",
    ("static iteration time grows (last-10 mean > 1.1 x first-10)",
     lambda s, q: s[-10:].mean() > 1.1 * s[:10].mean()),
    ("periodic:25 keeps late iterations cheaper than static",
     lambda s, q: q[-10:].mean() < s[-10:].mean()),
)  # fmt: skip
_series_figure(
    18, "scatter_max_bytes", "max scatter bytes sent/recv by any proc",
    ("static scatter volume grows", lambda s, q: s[-10:].mean() > s[:10].mean()),
    ("periodic:25 keeps late scatter volume below static",
     lambda s, q: q[-10:].mean() < s[-10:].mean()),
)  # fmt: skip
_series_figure(
    19, "scatter_max_msgs", "max scatter messages sent/recv by any proc",
    ("static message count does not shrink", lambda s, q: s[-10:].mean() >= s[:10].mean()),
    ("periodic:25 caps the worst-case partner count at static's", lambda s, q: q.max() <= s.max()),
)  # fmt: skip


def _policy_sweep(name: str, title: str, iters: int, periods, more_shape, **config):
    """A periodic sweep, dynamic and static on one configuration.

    ``more_shape(periodic totals, static total)`` is the caller's own claim.
    """
    policies = [f"periodic:{k}" for k in periods if k <= iters // 2] + ["dynamic", "static"]
    runs = yield {p: _job(f"{name} {p}", iters, policy=p, **config) for p in policies}
    rows = [[p, _total(run), _total(run, "n_redistributions")] for p, run in runs.items()]
    totals = {p: total for p, total, _ in rows}
    periodic = [t for p, t in totals.items() if p.startswith("periodic")]
    return _table(
        title, ["policy", "total time (s)", "#redis"], rows,
        ("dynamic is within 5% of the best period without tuning",
         totals["dynamic"] <= 1.05 * min(periodic)),
        ("dynamic beats static", totals["dynamic"] < totals["static"]),
        more_shape(periodic, totals["static"]),
    )  # fmt: skip


@experiment
def fig20(scale: float):
    """Periodic vs dynamic (SAR) redistribution over 200 iterations."""
    c = FIG20_CASE
    return (yield from _policy_sweep(
        "fig20", f"Figure 20: periodic vs dynamic redistribution ({c.nx}x{c.ny}, "
        f"n={c.nparticles}, p={c.p})",
        max(scaled_iterations(c.iterations, scale, minimum=100), 200), (100, 50, 25, 10, 5, 2),
        lambda periodic, static: ("the period choice matters (worst > 1.01 x best)",
                                  max(periodic) > 1.01 * min(periodic)),
        **c.config_kwargs(),
    ))  # fmt: skip


# ----------------------------------------------------------------------
# Table 2, Table 3 and Figures 21/22: one sweep, dynamic policy
# ----------------------------------------------------------------------
def _table2_runs(scale: float):
    """Every Table 2 case under both schemes, as ``(case, hilbert, snake)``."""
    jobs = {
        (case.name, scheme): _job(
            f"table2 {case.name} {scheme}", scaled_iterations(case.iterations, scale),
            policy="dynamic", scheme=scheme, **case.config_kwargs(),
        )  # fmt: skip
        for case in TABLE2_CASES
        for scheme in ("hilbert", "snake")
    }
    runs = yield jobs
    return [(c, runs[c.name, "hilbert"], runs[c.name, "snake"]) for c in TABLE2_CASES]


@experiment
def table2(scale: float):
    """Computational time, Hilbert vs snakelike indexing (dynamic redistribution)."""
    rows = [
        [c.distribution, f"{c.nx}x{c.ny}", c.nparticles, c.p, _total(hil), _total(snk),
         _total(hil, "computation_time")]
        for c, hil, snk in (yield from _table2_runs(scale))
    ]  # fmt: skip
    wins = sum(1 for r in rows if r[4] <= r[5] * 1.02)
    families: dict[tuple, dict[int, float]] = {}
    for dist, mesh, n, p, hil, _, _ in rows:
        families.setdefault((dist, mesh, n), {})[p] = hil
    scaling = all(
        by_p[b] < by_p[a]
        for by_p in families.values()
        for a, b in zip(sorted(by_p), sorted(by_p)[1:])
    )
    return _table(
        "Table 2: computational time, Hilbert vs snakelike indexing (dynamic redistribution)",
        ["distribution", "mesh", "particles", "p", "hilbert (s)", "snake (s)", "compute (s)"],
        rows,
        (f"Hilbert wins or ties (2%) at least 75% of the cases ({wins}/{len(rows)})",
         wins >= 0.75 * len(rows)),
        ("time drops with p in every (distribution, mesh, particles) family", scaling),
    )  # fmt: skip


@experiment
def table3(scale: float):
    """Efficiency of the Hilbert indexing scheme, T_1 / (p T_p)."""
    rows = []
    for c, hil, _ in (yield from _table2_runs(scale)):
        t1 = _total(hil, "computation_time") * c.p  # balanced compute, no comm
        rows.append([c.distribution, f"{c.nx}x{c.ny}", c.nparticles, c.p,
                     efficiency(t1, _total(hil), c.p)])  # fmt: skip
    by_granularity: dict[tuple, list[float]] = {}
    for dist, _, n, p, eff in rows:
        by_granularity.setdefault((dist, n // p), []).append(eff)
    return _table(
        "Table 3: efficiency of the Hilbert indexing scheme",
        ["distribution", "mesh", "particles", "p", "efficiency"],
        rows,
        ("efficiencies stay above 0.5", all(r[4] > 0.5 for r in rows)),
        ("efficiency never exceeds 1", all(r[4] <= 1.0 + 1e-9 for r in rows)),
        ("equal particles per processor give efficiencies within 0.25",
         all(max(e) - min(e) < 0.25 for e in by_granularity.values())),
    )  # fmt: skip


def _overhead(scale: float, distribution: str, figure: int, share: float, *more_shapes):
    """Figures 21/22; ``more_shapes`` are ``(claim, test(rows))``."""
    rows = [
        [f"{c.nx}x{c.ny}", c.nparticles, c.p, _total(hil, "overhead"), _total(snk, "overhead"),
         _total(hil, "redistribution_time")]
        for c, hil, snk in (yield from _table2_runs(scale))
        if c.distribution == distribution
    ]  # fmt: skip
    wins = sum(1 for r in rows if r[3] <= r[4] * 1.05)
    return _table(
        f"Figure {figure}: overhead of {scaled_iterations(200, scale)} iterations, "
        f"{distribution} distribution",
        ["mesh", "particles", "p", "hilbert overhead (s)", "snake overhead (s)",
         "hilbert redis (s)"],
        rows,
        (f"Hilbert overhead <= snake (5%) in at least {share:.0%} of the cases "
         f"({wins}/{len(rows)})", wins >= share * len(rows)),
        *((claim, test(rows)) for claim, test in more_shapes),
    )  # fmt: skip


@experiment
def fig21(scale: float):
    """Overhead (execution - computation), uniform distribution."""
    return (yield from _overhead(scale, "uniform", 21, 0.75))


@experiment
def fig22(scale: float):
    """Overhead (execution - computation), irregular distribution."""
    return (yield from _overhead(
        scale, "irregular", 22, 0.7,
        ("redistribution is at most half of Hilbert's overhead",
         lambda rows: all(r[5] <= 0.5 * max(r[3], 1e-12) for r in rows)),
    ))  # fmt: skip


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
@experiment
def ablation_incremental_sort(scale: float) -> Table:
    """Incremental vs from-scratch redistribution cost vs drift (Figure 11 claim)."""
    p, n_per = 16, 2000
    rows = []
    for drift in (10, 1000, 50000, 500000):
        rng = np.random.default_rng(drift)
        keys = np.sort(np.random.default_rng(0).integers(0, 10**6, p * n_per))
        state = BucketState.build(keys, np.arange(p + 1) * n_per, 16)
        new_keys = np.concatenate([
            np.maximum(state.keys[a:b] + rng.integers(-drift, drift + 1, b - a), 0)
            for a, b in zip(state.offsets[:-1], state.offsets[1:])
        ])  # fmt: skip
        block = KeyedBlock(state.keys.reshape(1, -1).astype(float), new_keys, state.offsets)
        vm_inc, vm_full = (VirtualMachine(p, MachineModel.cm5()) for _ in range(2))
        _, stats = bucket_incremental_sort(vm_inc, state, block)
        parallel_sample_sort(vm_full, block)
        rows.append([drift, stats.moved_rank / stats.total, vm_inc.elapsed(), vm_full.elapsed()])
    ratios = [inc / full for _, _, inc, full in rows]
    return _table(
        f"Ablation: incremental vs from-scratch redistribution ({p} procs, {p * n_per} elements)",
        ["drift", "fraction moved rank", "incremental (s)", "full sort (s)"],
        rows,
        ("incremental beats the full sort at every drift", all(r[2] < r[3] for r in rows)),
        ("small drifts benefit more than large ones", ratios[0] < ratios[-1]),
        ("the moved fraction grows with drift", rows[0][1] < rows[-1][1]),
    )


@experiment
def ablation_ghost_tables(scale: float) -> Table:
    """Hash vs direct-address duplicate-removal tables (Figure 8)."""
    nnodes = 512 * 256  # the paper's large mesh
    entries = 4 * 131072 // 32  # per-rank particle-vertex entries at p=32
    rng = np.random.default_rng(0)
    # a narrow band of node ids mimics the duplicate-heavy boundary access
    nodes = rng.integers(0, nnodes // 64, entries).astype(np.int64)
    values = rng.normal(size=(4, entries))
    rows = []
    for kind in ("direct", "hash"):
        table = make_ghost_table(kind, nnodes)
        table.accumulate(nodes, values)
        unique, _ = table.flush()
        stats = table.stats
        rows.append([kind, stats.entries, unique.size, stats.ops, stats.memory_slots])
    direct, hashed = rows
    return _table(
        "Ablation: duplicate-removal table organizations (Fig 8)",
        ["table", "entries", "unique nodes", "modeled ops", "memory slots"],
        rows,
        ("both tables agree on the unique nodes", direct[2] == hashed[2]),
        ("the direct table uses fewer probe ops", direct[3] < hashed[3]),
        ("the hash table uses less memory", hashed[4] < direct[4]),
        ("direct-table memory is proportional to the mesh", direct[4] >= nnodes),
    )


@experiment
def ablation_indexing_quality(scale: float) -> Table:
    """Subdomain quality of all four indexing schemes (32 procs, irregular)."""
    p, grid = 32, Grid2D(128, 64)
    particles = gaussian_blob(grid, 32768, rng=5)
    rows = []
    for scheme in ("hilbert", "morton", "snake", "rowmajor"):
        decomp = CurveBlockDecomposition(grid, p, scheme)
        local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
        rows.append([
            scheme,
            sum(bounding_box_area(lp, grid) for lp in local),
            int(ghost_node_counts(local, grid, decomp).sum()),
            int(partner_counts(local, grid, decomp).max()),
            sum(decomp.boundary_node_count(r) for r in range(p)),
        ])  # fmt: skip
    by = {r[0]: r for r in rows}
    # bounding-box area is not asserted: thin strips through a central blob
    # can have small boxes yet long boundaries; ghost nodes are the proxy
    return _table(
        f"Ablation: indexing-scheme subdomain quality ({p} procs, irregular)",
        ["scheme", "sum bbox area", "ghost nodes", "max partners", "mesh perimeter"],
        rows,
        ("Hilbert has the smallest mesh perimeter", by["hilbert"][4] == min(r[4] for r in rows)),
        ("snake's perimeter is more than twice Hilbert's", by["snake"][4] > 2 * by["hilbert"][4]),
        ("Hilbert has fewer ghost nodes than snake, row-major and Morton",
         all(by["hilbert"][2] < by[s][2] for s in ("snake", "rowmajor", "morton"))),
    )  # fmt: skip


@experiment
def ablation_replicated_mesh(scale: float) -> Table:
    """Replicated (Lubeck & Faber) vs distributed mesh vs p (paper §3)."""
    grid = Grid2D(128, 64)
    particles = gaussian_blob(grid, 32768, rng=3)
    iters = scaled_iterations(200, scale, minimum=10)
    rows = []
    for p in (4, 8, 16, 32, 64):
        vm_rep, vm_dist = (VirtualMachine(p, MachineModel.cm5()) for _ in range(2))
        round_robin = [particles.take(np.arange(r, particles.n, p)) for r in range(p)]
        rep = ReplicatedMeshPIC(vm_rep, grid, round_robin)
        aligned = ParticlePartitioner(grid).initial_partition(particles, p)
        decomp = CurveBlockDecomposition(grid, p, "hilbert")
        dist = ParallelPIC(vm_dist, grid, decomp, aligned, dt=rep.dt)
        for pic in (rep, dist):
            for _ in range(iters):
                pic.step()
        rows.append([p, vm_rep.elapsed(), float(vm_rep.comm_time.max()),
                     vm_dist.elapsed(), float(vm_dist.comm_time.max())])  # fmt: skip
    totals = [r[3] for r in rows]
    return _table(
        "Ablation: replicated (Lubeck & Faber) vs distributed mesh "
        f"(128x64, 32768 particles, irregular, {iters} iterations)",
        ["p", "replicated total (s)", "replicated comm (s)", "distributed total (s)",
         "distributed comm (s)"],
        rows,
        ("the distributed mesh wins at the largest p", rows[-1][3] < rows[-1][1]),
        ("the replicated scheme's communication share grows with p",
         rows[-1][2] / rows[-1][1] > rows[0][2] / rows[0][1]),
        ("the distributed total keeps dropping with p",
         all(b < a for a, b in zip(totals, totals[1:]))),
    )  # fmt: skip


@experiment
def ablation_machine_models(scale: float):
    """Machine sensitivity (paper §6.3 closing remark), 32 procs, irregular."""
    iters = scaled_iterations(200, scale, minimum=20)
    cases = [(model, n) for model in ("cm5", "modern") for n in (8192, 65536)]
    runs = yield {
        (model, n): _job(f"machines {model} n{n}", iters, nx=64, ny=32, nparticles=n, p=32,
                         distribution="irregular", policy="dynamic", model=model)
        for model, n in cases
    }  # fmt: skip
    eff = {key: _total(run, "computation_time") / _total(run) for key, run in runs.items()}
    return _table(
        "Ablation: machine sensitivity (32 procs, irregular)",
        ["machine", "particles", "particles/proc", "efficiency"],
        [[model, n, n // 32, eff[model, n]] for model, n in cases],
        ("more powerful nodes lower the efficiency", eff["modern", 8192] < eff["cm5", 8192]),
        ("more particles per processor recover it", eff["modern", 65536] > eff["modern", 8192]),
    )


@experiment
def ablation_adaptive_eulerian(scale: float) -> Table:
    """Lagrangian redistribution (paper) vs adaptive Eulerian rebalancing, 16 procs."""
    iters = scaled_iterations(200, scale, minimum=60)
    rows = []
    for label, movement, partitioning, policy in (
        ("lagrangian + dynamic redistribution", "lagrangian", "independent", "dynamic"),
        ("eulerian + adaptive rebalancing", "eulerian", "adaptive", "dynamic"),
        ("eulerian, never rebalanced", "eulerian", "grid", "static"),
    ):
        sim, result = _run(iters, movement=movement, partitioning=partitioning, policy=policy)
        rows.append([label, result.total_time, result.overhead, result.n_redistributions,
                     _balance(sim)])  # fmt: skip
    lag, ada, never = rows
    return _table(
        "Ablation: Lagrangian redistribution (paper) vs adaptive Eulerian "
        f"(descendant codes), irregular, 16 procs, {iters} iterations",
        ["variant", "total (s)", "overhead (s)", "#rebalance", "final particle imbalance"],
        rows,
        ("both managed schemes keep particles balanced (< 1.2, < 1.5)",
         lag[4] < 1.2 and ada[4] < 1.5),
        ("the never-rebalanced Eulerian baseline does not (> 2.0)", never[4] > 2.0),
        ("both managed schemes beat the unmanaged baseline end to end",
         lag[1] < never[1] and ada[1] < never[1]),
    )  # fmt: skip


@experiment
def ablation_modern_kernel(scale: float) -> Table:
    """Era (CIC + collocated) vs modern (Yee + zigzag) kernels under one distribution."""
    p, grid = 16, Grid2D(64, 32)
    particles = gaussian_blob(grid, 8192, rng=3)
    iters = scaled_iterations(200, scale, minimum=20)
    rows = []
    for kernel, stepper in (("era", ParallelPIC), ("modern", ParallelYeePIC)):
        for placement in ("aligned", "roundrobin"):
            vm = VirtualMachine(p, MachineModel.cm5())
            if placement == "aligned":
                local = ParticlePartitioner(grid, "hilbert").initial_partition(particles, p)
            else:
                local = [particles.take(np.arange(r, particles.n, p)) for r in range(p)]
            pic = stepper(vm, grid, CurveBlockDecomposition(grid, p, "hilbert"), local)
            for _ in range(iters):
                pic.step()
            rows.append([kernel, placement, vm.elapsed(), float(vm.comm_time.max())])
    return _table(
        "Ablation: era (CIC+collocated) vs modern (Yee+zigzag) kernels "
        f"under the paper's distribution ({p} procs, irregular)",
        ["kernel", "placement", "total (s)", "comm (s)"],
        rows,
        *((f"{al[0]}: alignment cuts communication below 0.6 x round-robin and wins overall",
           al[3] < 0.6 * rr[3] and al[2] < rr[2]) for al, rr in (rows[:2], rows[2:])),
    )  # fmt: skip


@experiment
def ablation_policies_modern(scale: float):
    """The Figure 20 policy comparison on the modern (Yee + zigzag) kernel."""
    return (yield from _policy_sweep(
        "modern", "Ablation: redistribution policies on the modern (Yee + zigzag) kernel",
        scaled_iterations(200, scale, minimum=100), (50, 25, 10, 5),
        lambda periodic, static: ("every period beats static", all(t < static for t in periodic)),
        nx=64, ny=32, nparticles=8192, p=16, distribution="irregular", kernel="modern",
    ))  # fmt: skip


#: Every registered zoo policy, with spec arguments where the defaults
#: target longer runs than the zoo experiment.
ZOO_SPECS = (
    "static",
    "periodic:25",
    "dynamic",
    "sar-ewma",
    "costmodel:horizon=50",
    "imbalance:threshold=1.4,hysteresis=0.2",
    "planner",
)


@experiment
def ablation_policy_zoo(scale: float):
    """Every zoo policy on uniform, irregular and two-stream particles, 32 procs."""
    iters = scaled_iterations(200, scale, minimum=40)
    workloads = ("uniform", "irregular", "two_stream")
    runs = yield {
        (dist, spec): _job(f"zoo {dist} {spec}", iters, nx=64, ny=32, nparticles=8192, p=32,
                           distribution=dist, policy=spec)
        for dist in workloads
        for spec in ZOO_SPECS
    }  # fmt: skip
    totals = {key: _total(run) for key, run in runs.items()}
    best = {dist: min(totals[dist, spec] for spec in ZOO_SPECS) for dist in workloads}
    return _table(
        f"Ablation: the policy zoo (64x32, 8192 particles, 32 procs, {iters} iterations)",
        ["workload", "policy", "total time (s)", "#redis"],
        [[dist, spec, totals[dist, spec], _total(run, "n_redistributions")]
         for (dist, spec), run in runs.items()],
        *((f"{dist}: dynamic is within 5% of the best zoo policy",
           totals[dist, "dynamic"] <= 1.05 * best[dist]) for dist in workloads),
        *((f"{dist}: dynamic beats static", totals[dist, "dynamic"] < totals[dist, "static"])
          for dist in workloads),
    )  # fmt: skip


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def reproduce(*, scale: float, scheduler: Scheduler):
    """Run every experiment; returns ``({name: Table}, batch report or None)``.

    In-process experiments run as they are reached; the generators' jobs
    are collected first and drained as one batch, one run per job key.
    A batch with a failed job raises :class:`RuntimeError`.
    """
    tables, waiting, batch = {}, {}, {}
    for name, run in EXPERIMENTS.items():
        t0 = time.perf_counter()
        out = run(scale)
        if isinstance(out, Table):
            tables[name] = out
            print(f"[paper] {name}: in-process, {time.perf_counter() - t0:.1f}s", file=sys.stderr)
            continue
        waiting[name] = (out, next(out))
        batch.update((spec.key, spec) for spec in waiting[name][1].values())
    report = None
    if batch:
        report = scheduler.run(list(batch.values()))
        if not report["ok"]:
            failed = [job["name"] for job in report["jobs"] if job["state"] != "done"]
            raise RuntimeError(f"the batch did not complete: {', '.join(failed)}")
        for name, (gen, wanted) in waiting.items():
            try:
                gen.send({label: scheduler.cache.get(spec.key) for label, spec in wanted.items()})
            except StopIteration as stop:
                tables[name] = stop.value
    return {name: tables[name] for name in EXPERIMENTS}, report


def _markers(name: str) -> tuple[str, str]:
    return f"<!-- repro paper: {name} -->\n", f"<!-- /repro paper: {name} -->"


def _place(doc: str, name: str, table: Table) -> tuple[str, str, str, str]:
    """``(head, old block, new block, tail)`` of ``name``'s block in ``doc``."""
    begin, end = _markers(name)
    head, _, rest = doc.partition(begin)
    old, _, tail = rest.partition(end)
    return head + begin, old, f"```text\n{table.render()}\n```\n", end + tail


def main(*, scale=1.0, check=False, doc="EXPERIMENTS.md", cache=".repro-cache"):
    """``python -m repro paper``; returns the exit code."""
    if not scale > 0:
        raise SystemExit(f"--scale must be > 0, got {scale}")
    if check and scale != 1:
        raise SystemExit("--check compares the paper's lengths; drop --scale")
    doc, text = Path(doc), None
    if scale == 1:
        if not doc.exists():
            raise SystemExit(f"{doc} not found: run from the repository root or pass --doc")
        text = doc.read_text()
        missing = [name for name in EXPERIMENTS if not all(m in text for m in _markers(name))]
        if missing:
            raise SystemExit(f"{doc} lacks the repro paper markers of {', '.join(missing)}")

    def progress(line: str) -> None:
        if line.startswith(("done", "FAILED", "retry")):
            print(f"[paper] {line}", file=sys.stderr, flush=True)

    scheduler = Scheduler(cache=cache, heartbeat_timeout=60.0,
                          checkpoint_every=CHECKPOINT_EVERY, progress=progress)  # fmt: skip
    t0 = time.perf_counter()
    try:
        tables, report = reproduce(scale=scale, scheduler=scheduler)
    except RuntimeError as exc:
        raise SystemExit(f"repro paper: {exc}")
    for name, table in tables.items():
        print(f"== {name} ==\n{table.render()}\n")
    if report is not None:
        launched = int(scheduler.telemetry.registry.counter("jobs.launched").value)
        print(f"batch: {len(report['jobs'])} jobs, {report['counters']['cache_hits']} cache hits, "
              f"{launched} workers launched, batch wall {report['wall']:.1f}s")  # fmt: skip
    print(f"wall {time.perf_counter() - t0:.1f}s at scale {scale:g}")
    failed = [name for name, table in tables.items() if not table.reproduced]
    if failed:
        print(f"NOT REPRODUCED: {', '.join(failed)}")
    if text is None:
        print(f"(tables at --scale {scale:g} are printed only; {doc} holds the paper's lengths)")
    elif check:
        # the doc records every verdict, so a shape that flips either way is a stale block
        blocks = {name: _place(text, name, table)[1:3] for name, table in tables.items()}
        stale = [name for name, (old, new) in blocks.items() if old != new]
        for name in stale:
            old, new = blocks[name]
            diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "committed",
                                        "reproduced", lineterm="")  # fmt: skip
            print(f"{doc} is stale for {name}:\n" + "\n".join(diff))
        print(f"stale: {', '.join(stale)} (regenerate: python -m repro paper)" if stale
              else f"{doc} is current")  # fmt: skip
        return 1 if stale else 0
    else:
        for name, table in tables.items():
            head, _, new, tail = _place(text, name, table)
            text = head + new + tail
        doc.write_text(text)
        print(f"[{len(tables)} blocks written to {doc}]")
    return 1 if failed else 0
