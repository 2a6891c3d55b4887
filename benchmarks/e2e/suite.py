"""Sets of runs: ``run``, ``trace``, the A/A noise gate ``aa``, and ``report``.

Every run is a fresh child process of the one command, one at a time, so
no more than two busy processes exist at any moment (the run and, inside
it, a worker or cold-start child).  A *set* is one run of each workload;
sets are interleaved across workloads so slow drift of the host spreads
over all of them instead of landing on one.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.e2e import layers, protocol
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, WORKLOADS

__all__ = ["main", "manifest", "noise_rows", "render_ledger"]

HERE = Path(__file__).resolve().parent
NOISE_PATH = HERE / "NOISE.json"
LEDGER_PATH = HERE / "LEDGER.md"
#: the A/A gate fails when runs of one group differ by more than this, (max - min) / median
SPREAD_LIMIT = 0.10
UNTRACED_PATH = protocol.RESULTS_DIR / "untraced.json"
TRACED_PATH = protocol.RESULTS_DIR / "traced.json"

#: per-layer ``*_s`` metrics measured inside the root span of a pass; their
#: sum is the pass (construction and outside-the-process timings excluded)
PASS_LAYERS = tuple(
    m.name
    for m in PER_LAYER
    if m.name in layers.SPAN_METRICS
    and m.name not in ("indexing.keys_s", "mesh.decomp_build_s", "core.initial_partition_s")
)


def one_run(workload: str, seed: int, seconds: float, scale: str, trace: int) -> dict:
    """One run in a fresh interpreter; its full result document."""
    out = protocol.RESULTS_DIR / f"last-{workload}-{trace}.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--scale", scale, "--trace", str(trace), "--out", str(out),
    ]  # fmt: skip
    t0 = perf_counter()
    subprocess.run(
        command, cwd=protocol.ROOT, env=protocol.child_env(), check=True, stdout=subprocess.DEVNULL
    )
    result = json.loads(out.read_text())
    result["took_s"] = perf_counter() - t0  # the whole process, interpreter start to exit
    return result


def run_sets(args, nsets: int, seed_of_set) -> list[list[dict]]:
    """``nsets`` interleaved sets of untraced runs; ``sets[i][j]`` is workload j."""
    seconds = args.seconds if args.seconds is not None else protocol.DEFAULT_SECONDS
    sets = []
    for index in range(nsets):
        results = []
        for workload in WORKLOADS:
            result = one_run(workload, seed_of_set(index), seconds, args.scale, 0)
            metrics = result["metrics"]
            print(
                f"set {index + 1}/{nsets}  {workload:<15} seed={result['seed']}  "
                f"wall_s={metrics['wall_s']['value']:.4f}  setup_s={metrics['setup_s']['value']:.4f}  "
                f"passes={result['passes']}  failed={result['ops_failed']}  "
                f"took={result['took_s']:.1f}s",
                flush=True,
            )
            results.append(result)
        sets.append(results)
    return sets


def _spread(values: list[float]) -> float:
    median = statistics.median(values)
    return (max(values) - min(values)) / median if median else 0.0


def _iqr(values: list[float]) -> float:
    """Quartile distance over the median — the driver's measure of spread."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def noise_rows(group_a: list[list[dict]], group_b: list[list[dict]]) -> list[dict]:
    """Per workload x end-to-end metric: spreads, the A-to-B gap, the bound."""
    rows = []
    for column, workload in enumerate(WORKLOADS):
        for metric in END_TO_END:
            a, b = (
                [s[column]["metrics"][metric.name]["value"] for s in group]
                for group in (group_a, group_b)
            )
            median_a, median_b = statistics.median(a), statistics.median(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "bound": metric.bound,
                    "median_a": median_a,
                    "median_b": median_b,
                    "gap": abs(median_b - median_a) / median_a,
                    "spread_a": _spread(a),
                    "spread_b": _spread(b),
                    "iqr_a": _iqr(a),
                    "iqr_b": _iqr(b),
                    "values_a": a,
                    "values_b": b,
                }
            )
    return rows


def _gate(rows: list[dict], sets: list[list[dict]]) -> list[str]:
    """Why the A/A gate fails (empty = it passes)."""
    problems = []
    for row in rows:
        where = f"{row['workload']}/{row['metric']}"
        if row["gap"] > row["bound"]:
            problems.append(f"{where}: gap {row['gap']:.4f} > bound {row['bound']}")
        spread = max(row["spread_a"], row["spread_b"])
        if spread > SPREAD_LIMIT:
            problems.append(f"{where}: run-to-run spread {spread:.4f} > {SPREAD_LIMIT}")
        # the k-th sets of A and B share a seed, so their virtual times must be equal
        if row["metric"] == "vm_s" and row["values_a"] != row["values_b"]:
            problems.append(f"{where}: vm_s differs between runs of one seed")
    failed = sum(result["ops_failed"] for results in sets for result in results)
    if failed:
        problems.append(f"{failed} failed operation(s)")
    return problems


def _print_noise(rows: list[dict]) -> None:
    print(f"{'workload':<15} {'metric':<21} {'median A':>12} {'gap':>7} {'spread A':>8} {'spread B':>8} "
          f"{'iqr A':>7} {'iqr B':>7} {'bound':>6}")  # fmt: skip
    for r in rows:
        print(
            f"{r['workload']:<15} {r['metric']:<21} {r['median_a']:>12.6g} {r['gap']:>7.4f} "
            f"{r['spread_a']:>8.4f} {r['spread_b']:>8.4f} {r['iqr_a']:>7.4f} {r['iqr_b']:>7.4f} "
            f"{r['bound']:>6.2f}"
        )


def command_aa(args) -> int:
    """Two interleaved sets-of-N on one checkout; the benchmark's own noise.

    Odd sets are group A and even sets group B.  The k-th set of each group
    runs seed + k, as the driver samples a seed per run, so the two groups
    see the same seeds and ``vm_s`` must agree between them run by run.
    """
    sets = run_sets(args, 2 * args.sets, lambda index: args.seed + index // 2)
    protocol.write_json(protocol.RESULTS_DIR / "aa-runs.json", sets)
    rows = noise_rows(sets[0::2], sets[1::2])
    problems = _gate(rows, sets)
    _print_noise(rows)
    document = {
        "sets": args.sets,
        "seed": args.seed,
        "seconds": sets[0][0]["seconds"],
        "scale": args.scale,
        "ok": not problems,
        "problems": problems,
        "environment": sets[0][0]["environment"],
        "loadavg_end": sets[-1][-1]["environment"]["loadavg_end"],
        "rows": rows,
    }
    protocol.write_json(NOISE_PATH if args.scale == "full" else protocol.RESULTS_DIR / "noise.json", document)
    for problem in problems:
        print("FAILED:", problem)
    print("A/A gate:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def command_run(args) -> int:
    sets = run_sets(args, args.sets, lambda index: args.seed)
    protocol.write_json(UNTRACED_PATH, [result for results in sets for result in results])
    return 0


def command_trace(args) -> int:
    seconds = args.seconds if args.seconds is not None else protocol.DEFAULT_SECONDS
    results = []
    for workload in WORKLOADS:
        result = one_run(workload, args.seed, seconds, args.scale, 1)
        shares = result["metrics"]
        print(
            f"{workload:<15} driver.self_frac={shares['driver.self_frac']['value']:.4f}  "
            f"trace.overhead_frac={shares['trace.overhead_frac']['value']:.4f}  "
            f"chrome trace: {result['chrome_trace']}",
            flush=True,
        )
        results.append(result)
    protocol.write_json(TRACED_PATH, results)
    return 0


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def render_ledger(untraced: list[dict], traced: list[dict]) -> str:
    """LEDGER.md: end-to-end medians and every layer's share, per workload."""
    env = untraced[0]["environment"]
    lines = [
        "# Performance ledger",
        "",
        "Generated by `python -m benchmarks.e2e report` from the latest `run` and `trace`",
        "results; do not edit by hand.  End-to-end numbers are medians over untraced runs,",
        "layer shares come from the traced run (self time of each layer's spans over the",
        "sum of all layers of a pass, so the column adds up to 100 %).  It records a state,",
        "not a gain.",
        "",
        f"Host: {env['cpu']}, nproc {env['nproc']}, Python {env['python']}, NumPy {env['numpy']}, "
        f"commit `{env['commit']}`, seed {env['seed']}.",
    ]
    for workload, why in WORKLOADS.items():
        runs = [r for r in untraced if r["workload"] == workload]
        trace = next((r for r in traced if r["workload"] == workload), None)
        lines += ["", f"## {workload}", "", why + ".", ""]
        if runs:
            lines += [f"End to end (median of {len(runs)} runs, {runs[0]['passes']} passes each):", ""]
            lines += ["| metric | median | unit | bound |", "|---|---:|---|---:|"]
            for metric in END_TO_END:
                value = statistics.median(r["metrics"][metric.name]["value"] for r in runs)
                lines.append(f"| `{metric.name}` | {value:.6g} | {metric.unit} | {metric.bound:.0%} |")
        if trace:
            values = {name: m["value"] for name, m in trace["metrics"].items()}
            total = sum(values[name] for name in PASS_LAYERS)
            lines += ["", f"Layers of one traced pass ({total:.4g} s in all):", ""]
            lines += ["| layer metric | self s | share |", "|---|---:|---:|"]
            for name in sorted(PASS_LAYERS, key=lambda n: -values[n]):
                if values[name] or name == "driver.self_s":
                    note = " (unattributed)" if name == "driver.self_s" else ""
                    lines.append(f"| `{name}`{note} | {values[name]:.4g} | {values[name] / total:.1%} |")
            lines += ["", "Other per-layer metrics:", "", "| metric | value | unit |", "|---|---:|---|"]
            for metric in PER_LAYER:
                if metric.name not in PASS_LAYERS and values[metric.name]:
                    lines.append(f"| `{metric.name}` | {values[metric.name]:.6g} | {metric.unit} |")
    return "\n".join(lines) + "\n"


def command_report(args) -> int:
    missing = [str(p) for p in (UNTRACED_PATH, TRACED_PATH) if not p.exists()]
    if missing:
        print("no results yet; run `python -m benchmarks.e2e run` and `... trace` first:", *missing)
        return 1
    text = render_ledger(json.loads(UNTRACED_PATH.read_text()), json.loads(TRACED_PATH.read_text()))
    LEDGER_PATH.write_text(text)
    print(f"wrote {LEDGER_PATH.relative_to(protocol.ROOT)}")
    return 0


def manifest() -> dict:
    """``BENCHMARK.json``: the driver's view of ``metrics.py`` and the run length."""
    return {
        "command": ["python3", "benchmarks/e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": protocol.DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def command_manifest(args) -> int:
    path = protocol.ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path.relative_to(protocol.ROOT)}")
    return 0


def main(args) -> int:
    return {
        "manifest": command_manifest,
        "run": command_run,
        "trace": command_trace,
        "aa": command_aa,
        "report": command_report,
    }[args.command](args)
