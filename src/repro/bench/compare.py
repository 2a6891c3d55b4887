"""Diff two ``BENCH_<suite>.json`` trajectory files and gate regressions.

``compare_suites`` pairs cases by name and computes the wall-clock ratio
``new.wall.min / old.wall.min``.  Tier-1 cases whose ratio exceeds
``1 + threshold`` are **regressions** and make the comparison fail —
the perf analogue of a failing unit test.  Virtual-machine time and op
counts are gated too, on every tier: they are deterministic, so any
difference between two files is a behaviour change and fails the
comparison until the baseline is regenerated on purpose.  (Stateful
cases report their final repeat, so compare at equal ``--repeats``.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.bench.core import BenchResult, SuiteResult

__all__ = ["CaseDelta", "Comparison", "compare_suites", "compare_files"]


@dataclass
class CaseDelta:
    """Old-vs-new measurements of one case present in both files."""

    name: str
    tier: int
    old_wall: float
    new_wall: float
    old_vm: float | None
    new_vm: float | None
    old_ops: dict[str, float]
    new_ops: dict[str, float]

    @property
    def wall_ratio(self) -> float:
        """``new / old`` minimum wall-clock (1.0 = unchanged)."""
        if self.old_wall <= 0:
            return float("inf") if self.new_wall > 0 else 1.0
        return self.new_wall / self.old_wall

    @property
    def vm_ratio(self) -> float | None:
        """``new / old`` virtual time, or None when either side lacks it."""
        if not self.old_vm or self.new_vm is None:
            return None
        return self.new_vm / self.old_vm

    @property
    def behaviour_changed(self) -> bool:
        """True when virtual time (rel 1e-9) or the op counts differ."""
        if self.old_ops != self.new_ops:
            return True
        if self.old_vm is None or self.new_vm is None:
            return self.old_vm is not self.new_vm
        return not math.isclose(self.old_vm, self.new_vm, rel_tol=1e-9, abs_tol=0.0)

    def regressed(self, threshold: float) -> bool:
        """True when wall-clock slowed by more than ``threshold``."""
        return self.wall_ratio > 1.0 + threshold

    def improved(self, threshold: float) -> bool:
        """True when wall-clock sped up by more than ``threshold``."""
        return self.wall_ratio < 1.0 - threshold


@dataclass
class Comparison:
    """Outcome of one old-vs-new diff."""

    deltas: list[CaseDelta]
    threshold: float
    only_old: list[str]
    only_new: list[str]
    #: ``(old, new)`` ``environment.native`` blocks when the two files ran on
    #: different particle kernels (compiled / NumPy bodies / not recorded):
    #: a note beside the wall ratios, never a failure — results are identical
    native_differs: tuple | None = None

    @property
    def regressions(self) -> list[CaseDelta]:
        """Tier-1 cases slower than the gate allows."""
        return [d for d in self.deltas if d.tier <= 1 and d.regressed(self.threshold)]

    @property
    def improvements(self) -> list[CaseDelta]:
        """Cases faster by more than the threshold (any tier)."""
        return [d for d in self.deltas if d.improved(self.threshold)]

    @property
    def behaviour_changes(self) -> list[CaseDelta]:
        """Cases (any tier) whose virtual time or op counts differ."""
        return [d for d in self.deltas if d.behaviour_changed]

    @property
    def ok(self) -> bool:
        """True when no gated case regressed or changed behaviour."""
        return not self.regressions and not self.behaviour_changes

    def to_dict(self) -> dict:
        """Machine-readable report for ``bench compare --json``."""
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "cases": {
                d.name: {
                    "tier": d.tier,
                    "old_wall_min": d.old_wall,
                    "new_wall_min": d.new_wall,
                    "wall_ratio": d.wall_ratio,
                    "old_vm_seconds": d.old_vm,
                    "new_vm_seconds": d.new_vm,
                    "vm_ratio": d.vm_ratio,
                    "behaviour_changed": d.behaviour_changed,
                    "regressed": d.regressed(self.threshold),
                    "improved": d.improved(self.threshold),
                }
                for d in self.deltas
            },
            "only_old": list(self.only_old),
            "only_new": list(self.only_new),
            "native_differs": self.native_differs,
        }


def compare_suites(
    old: SuiteResult, new: SuiteResult, *, threshold: float = 0.2
) -> Comparison:
    """Pair cases by name and compute wall/vm deltas."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    old_by: dict[str, BenchResult] = {r.name: r for r in old.results}
    new_by: dict[str, BenchResult] = {r.name: r for r in new.results}
    deltas = [
        CaseDelta(
            name=name,
            tier=min(old_by[name].tier, new_by[name].tier),
            old_wall=old_by[name].wall_min,
            new_wall=new_by[name].wall_min,
            old_vm=old_by[name].vm_seconds,
            new_vm=new_by[name].vm_seconds,
            old_ops=old_by[name].op_counts,
            new_ops=new_by[name].op_counts,
        )
        for name in old_by
        if name in new_by
    ]
    kernels = tuple((suite.environment or {}).get("native") for suite in (old, new))
    return Comparison(
        deltas=deltas,
        threshold=threshold,
        only_old=sorted(set(old_by) - set(new_by)),
        only_new=sorted(set(new_by) - set(old_by)),
        native_differs=kernels if kernels[0] != kernels[1] else None,
    )


def compare_files(
    old_path: str | Path, new_path: str | Path, *, threshold: float = 0.2
) -> Comparison:
    """Load two trajectory files and compare them."""
    return compare_suites(
        SuiteResult.load(old_path), SuiteResult.load(new_path), threshold=threshold
    )
