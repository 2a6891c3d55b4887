"""Render run telemetry files as terminal reports (``repro report``).

Consumes the artifacts a traced run leaves behind — a metrics JSONL
stream (``--metrics``) and optionally a Chrome-trace JSON (``--trace``)
— and renders:

* run header + totals (iterations, time, redistributions, recoveries);
* the per-phase execution profile: :func:`render_phase_profile`'s
  stacked bars over the iteration records' ``phase_time`` rows;
* the load-imbalance trajectory as an ASCII sparkline + summary stats;
* the redistribution-decision log: one line per SAR evaluation with the
  inputs of Eq. 1 (``t1-t0``, ``i1-i0``, measured ``T_redistribution``)
  and the fire/skip verdict, plus periodic/static outcomes;
* recovery / checkpoint / shrink events.

With two or more metrics files, a side-by-side comparison table of
phase totals and run totals is appended — the view used to compare two
policies or a fault-recovered run against its fault-free twin.

This module is also the home of the generic text-rendering primitives
(:func:`format_table`, :func:`ascii_series`) shared by the bench
harness, the job-service report, and the batch rollup (the
``repro.analysis`` package re-exports them beside its tables).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.telemetry.collector import fold_aggregates
from repro.telemetry.schema import ParsedMetrics, validate_metrics, validate_trace
from repro.util import require

__all__ = [
    "render_report",
    "render_phase_profile",
    "render_comparison",
    "render_decision_comparison",
    "report_from_files",
    "format_table",
    "ascii_series",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], *, title: str | None = None) -> str:
    """Render rows as an aligned monospace table.

    Floats are shown with 2 decimals; other values via ``str``.
    """
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.2f}"
        return str(v)

    str_rows = [[fmt(v) for v in row] for row in rows]
    for row in str_rows:
        require(len(row) == len(headers), "row width must match headers")
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in str_rows)) if str_rows else len(headers[j])
        for j in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[j].rjust(widths[j]) for j in range(len(headers))))
    return "\n".join(lines)


def ascii_series(
    values: np.ndarray,
    *,
    width: int = 72,
    height: int = 12,
    label: str = "",
) -> str:
    """Render a 1-D series as a small ASCII chart (for figure benches)."""
    values = np.asarray(values, dtype=float)
    require(values.ndim == 1, "values must be 1-D")
    if values.size == 0:
        return f"{label} (empty series)"
    # Downsample to the chart width by block means.
    if values.size > width:
        edges = np.linspace(0, values.size, width + 1).astype(int)
        sampled = np.array([values[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
    else:
        sampled = values
    lo, hi = float(sampled.min()), float(sampled.max())
    span = hi - lo if hi > lo else 1.0
    rows = np.clip(((sampled - lo) / span * (height - 1)).round().astype(int), 0, height - 1)
    canvas = [[" "] * sampled.size for _ in range(height)]
    for col, row in enumerate(rows):
        canvas[height - 1 - row][col] = "*"
    out = []
    if label:
        out.append(f"{label}  [min={lo:.4g}, max={hi:.4g}, n={values.size}]")
    out.extend("|" + "".join(line) for line in canvas)
    out.append("+" + "-" * sampled.size)
    return "\n".join(out)

_SPARK_GLYPHS = " .:-=+*#%@"
#: the least span a sparkline scales to, as a share of its smaller magnitude: a change
#: of 1 % or more draws full height, one below three printed decimals of ~1 draws flat
_SPARK_FLOOR = 0.01


def _sparkline(values: list[float], width: int = 60) -> str:
    """Bucket ``values`` to at most ``width`` columns of density glyphs."""
    if not values:
        return "(no data)"
    if len(values) > width:
        # mean-pool into `width` buckets
        pooled = []
        for c in range(width):
            a = c * len(values) // width
            b = max((c + 1) * len(values) // width, a + 1)
            pooled.append(sum(values[a:b]) / (b - a))
        values = pooled
    lo, hi = min(values), max(values)
    span = max(hi - lo, _SPARK_FLOOR * min(abs(lo), abs(hi)))
    if span <= 0:
        return _SPARK_GLYPHS[1] * len(values)
    steps = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[1 + int((v - lo) / span * (steps - 1))] for v in values
    )


#: a phase's glyph in the profile's bars; any other phase is "X"
_PHASE_GLYPHS = {
    "scatter": "S", "field": "F", "gather": "G", "push": "P",
    "redistribution": "R", "migration": "M", "rebalance": "B", "recovery": "V",
}  # fmt: skip


def render_phase_profile(rows: Sequence[dict[str, float]], *, width: int = 60) -> str:
    """ASCII profile of per-iteration phase-time rows (``phase_time``):
    one stacked bar of phase shares per group of rows (bucketed to at
    most ``width`` columns), ten glyphs high."""
    require(bool(rows), "no phase rows to profile")
    phases = sorted({phase for row in rows for phase, t in row.items() if t > 0})
    series = {p: np.array([row.get(p, 0.0) for row in rows]) for p in phases}
    glyph_of = {p: _PHASE_GLYPHS.get(p, "X") for p in phases}
    legend = ", ".join(f"{glyph_of[p]}={p}" for p in phases)
    lines = ["phase profile (per-iteration share):", legend]
    buckets = np.linspace(0, len(rows), min(width, len(rows)) + 1).astype(int)
    bar_height = 10
    grid_cols = []
    for a, b in zip(buckets[:-1], buckets[1:]):
        sums = {p: float(series[p][a:b].sum()) for p in phases}
        total = sum(sums.values())
        column = []
        if total > 0:
            # Largest-remainder apportionment: glyph counts always sum
            # to exactly bar_height, so no phase's share is silently
            # truncated by independent rounding.
            shares = np.array([bar_height * sums[p] / total for p in phases])
            counts = np.floor(shares).astype(int)
            shortfall = bar_height - int(counts.sum())
            if shortfall > 0:
                order = np.argsort(-(shares - counts), kind="stable")
                counts[order[:shortfall]] += 1
            for p, count in zip(phases, counts):
                column.extend(glyph_of[p] * int(count))
        grid_cols.append((column + [" "] * bar_height)[:bar_height])
    for level in range(bar_height - 1, -1, -1):
        lines.append("|" + "".join(col[level] for col in grid_cols))
    lines.append("+" + "-" * len(grid_cols))
    return "\n".join(lines)


def _totals(metrics: ParsedMetrics) -> dict:
    """The run totals the report prints: the stream's own aggregates
    (:func:`~repro.telemetry.collector.fold_aggregates` of its body, so the
    report says what the summary says), plus per-phase time totals."""
    # the fold reads floats off iteration records only, in order, and
    # counts events, so the two lists need not be interleaved
    agg = fold_aggregates(metrics.iterations + metrics.events)
    agg = {name: entry["value"] for name, entry in agg.items()}
    phase_totals: dict[str, float] = {}
    for rec in metrics.iterations:
        for phase, dt in rec["phase_time"].items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + dt
    comm = [(name.rsplit(".", 1)[1], v) for name, v in agg.items() if name.startswith("comm.")]
    return {
        "iterations": int(agg.get("iterations", 0)),
        "total_time": agg.get("iteration.time", {}).get("sum", 0.0),
        "phase_totals": phase_totals,
        "comm_bytes": sum(v for kind, v in comm if kind == "bytes"),
        "comm_msgs": sum(v for kind, v in comm if kind == "msgs"),
        "redistributions": int(agg.get("redistribution.count", 0)),
        "redistribution_time": agg.get("redistribution.cost", {}).get("sum", 0.0),
        "recoveries": int(agg.get("recovery.count", 0)),
    }


#: decision-record fields not shown in the per-evaluation detail column
_DECISION_META = ("policy", "iteration", "fired", "reason")


def _decision_detail(d: dict) -> str:
    """Render one decision record's inputs, whatever the policy emitted."""
    if d.get("reason") is not None:
        return f"({d['reason']})"
    parts = []
    for key, value in d.items():
        if key in _DECISION_META or value is None:
            continue
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def _decision_lines(metrics: ParsedMetrics, *, limit: int = 40) -> list[str]:
    """One line per policy evaluation, plus an offline replay cross-check.

    Every record is re-derived through
    :func:`repro.core.policies.replay_decision`; records whose replayed
    verdict disagrees with the logged ``fired`` flag (or whose policy is
    unknown to this build) are flagged — the §5.6 audit the report
    exists to make visible.
    """
    from repro.core.policies import replay_decision

    lines: list[str] = []
    mismatches = 0
    unknown = 0
    total = 0
    for rec in metrics.iterations:
        for d in rec["sar_decisions"]:
            total += 1
            verdict = "FIRE" if d.get("fired") else "skip"
            flag = ""
            try:
                if replay_decision(d) != bool(d.get("fired")):
                    mismatches += 1
                    flag = "  REPLAY-MISMATCH"
            except (ArithmeticError, LookupError, TypeError, ValueError, NotImplementedError):
                unknown += 1
            policy = d.get("policy", "?")
            lines.append(
                f"  it {rec['iteration']:>4d}  [{policy:<9s}] {verdict:<4s}  "
                f"{_decision_detail(d)}{flag}"
            )
    if len(lines) > limit:
        hidden = len(lines) - limit
        lines = lines[:limit] + [f"  ... {hidden} more evaluation(s) elided"]
    if total:
        check = (
            f"  replay check: {total - mismatches - unknown}/{total} verdicts reproduced"
        )
        if mismatches:
            check += f", {mismatches} MISMATCH(ES)"
        if unknown:
            check += f", {unknown} not replayable here"
        lines.append(check)
    return lines


def render_report(
    metrics: ParsedMetrics, *, label: str = "run", trace: dict | None = None
) -> str:
    """Render one run's telemetry as a terminal report string."""
    out: list[str] = []
    t = _totals(metrics)
    cfg = metrics.header.get("config") or {}
    desc = ", ".join(
        f"{key}={cfg[key]}"
        for key in ("scheme", "policy", "movement", "kernel")
        if key in cfg
    )
    out.append(f"=== telemetry report: {label} ===")
    out.append(f"ranks: {metrics.p}" + (f"  ({desc})" if desc else ""))
    out.append(
        f"iterations: {t['iterations']}   total time: {t['total_time']:.4f} s   "
        f"comm: {t['comm_msgs']:.0f} msgs / {t['comm_bytes']:.0f} bytes"
    )
    out.append(
        f"redistributions: {t['redistributions']} "
        f"({t['redistribution_time']:.4f} s)   recoveries: {t['recoveries']}"
    )

    # -- phase profile (stacked bars over the records' phase rows) -------
    rows = [rec["phase_time"] for rec in metrics.iterations]
    if any(rows):
        out.append("")
        out.append(render_phase_profile(rows))
        out.append("phase totals:")
        for phase, seconds in sorted(
            t["phase_totals"].items(), key=lambda kv: -kv[1]
        ):
            share = seconds / t["total_time"] * 100 if t["total_time"] > 0 else 0.0
            out.append(f"  {phase:<15s} {seconds:10.4f} s  ({share:5.1f}%)")

    # -- imbalance trajectory -------------------------------------------
    imbalances = [rec["imbalance"] for rec in metrics.iterations]
    if imbalances:
        out.append("")
        out.append(
            f"load imbalance (max/mean): first={imbalances[0]:.3f} "
            f"last={imbalances[-1]:.3f} peak={max(imbalances):.3f}"
        )
        out.append(f"  [{_sparkline(imbalances)}]")

    # -- redistribution decision log ------------------------------------
    decisions = _decision_lines(metrics)
    if decisions:
        out.append("")
        out.append("redistribution decisions:")
        out.extend(decisions)

    # -- events ----------------------------------------------------------
    shown_events = [
        ev for ev in metrics.events if ev.get("kind") != "guard_violation"
    ]
    violations = len(metrics.events) - len(shown_events)
    if shown_events or violations:
        out.append("")
        out.append("events:")
        for ev in shown_events:
            extra = {
                k: v
                for k, v in ev.items()
                if k not in ("type", "kind", "iteration", "t")
            }
            detail = "  ".join(f"{k}={v}" for k, v in extra.items())
            out.append(
                f"  it {ev.get('iteration', '?'):>4}  {ev['kind']:<12s} "
                f"t={ev.get('t', 0.0):.4f}s  {detail}"
            )
        if violations:
            out.append(f"  guard violations: {violations}")

    # -- trace cross-check -----------------------------------------------
    if trace is not None:
        events = trace.get("traceEvents", [])
        nspans = sum(1 for ev in events if ev.get("ph") == "X")
        out.append("")
        out.append(
            f"trace: {nspans} spans across "
            f"{len({ev.get('tid') for ev in events if ev.get('ph') == 'X'})} rank lanes "
            f"(load the file in https://ui.perfetto.dev)"
        )
    return "\n".join(out)


def render_comparison(runs: list[tuple[str, ParsedMetrics]]) -> str:
    """Side-by-side phase totals + run totals for two or more runs."""
    labels = [label for label, _ in runs]
    totals = [_totals(metrics) for _, metrics in runs]
    phases = sorted({p for t in totals for p in t["phase_totals"]})
    colw = max(12, *(len(label) for label in labels)) + 2
    out = ["=== side-by-side comparison ==="]
    header = f"{'quantity':<18s}" + "".join(f"{label:>{colw}s}" for label in labels)
    out.append(header)
    out.append("-" * len(header))
    for phase in phases:
        out.append(
            f"{phase:<18s}"
            + "".join(
                f"{t['phase_totals'].get(phase, 0.0):>{colw}.4f}" for t in totals
            )
        )
    for key, fmt in (
        ("total_time", ".4f"),
        ("iterations", "d"),
        ("redistributions", "d"),
        ("redistribution_time", ".4f"),
        ("recoveries", "d"),
        ("comm_msgs", ".0f"),
        ("comm_bytes", ".3g"),
    ):
        out.append(
            f"{key:<18s}" + "".join(f"{t[key]:>{colw}{fmt}}" for t in totals)
        )
    return "\n".join(out)


def render_decision_comparison(runs: list[tuple[str, ParsedMetrics]]) -> str:
    """Decision behaviour of several runs side by side.

    One row per run: which policy decided, how often it was evaluated,
    how often it fired, when it first fired, and what the run paid —
    the view that crowns a winner when the runs cover the same workload
    under different policies (``repro report`` given several metrics files).
    """
    out = ["=== decision comparison ==="]
    header = (
        f"{'run':<24s} {'policy':<12s} {'evals':>6s} {'fired':>6s} "
        f"{'first':>6s} {'redist t':>10s} {'total t':>10s}"
    )
    out.append(header)
    out.append("-" * len(header))
    for label, metrics in runs:
        t = _totals(metrics)
        decisions = [d for rec in metrics.iterations for d in rec["sar_decisions"]]
        fired = [d for d in decisions if d.get("fired")]
        policy = decisions[0]["policy"] if decisions else (
            (metrics.header.get("config") or {}).get("policy", "?")
        )
        first = str(fired[0]["iteration"]) if fired else "-"
        out.append(
            f"{label:<24.24s} {str(policy):<12.12s} {len(decisions):>6d} "
            f"{len(fired):>6d} {first:>6s} {t['redistribution_time']:>10.4f} "
            f"{t['total_time']:>10.4f}"
        )
    return "\n".join(out)


def report_from_files(
    metrics_paths: list[str | Path], trace_path: str | Path | None = None
) -> str:
    """Validate the given files and render the full report text."""
    runs: list[tuple[str, ParsedMetrics]] = []
    for path in metrics_paths:
        runs.append((Path(path).name, validate_metrics(path)))
    trace = validate_trace(trace_path) if trace_path is not None else None
    sections = [
        render_report(metrics, label=label, trace=trace if i == 0 else None)
        for i, (label, metrics) in enumerate(runs)
    ]
    if len(runs) > 1:
        sections.append(render_comparison(runs))
        sections.append(render_decision_comparison(runs))
    return "\n\n".join(sections)
