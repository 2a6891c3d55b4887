"""Diff two trajectory files: the tripwire ``repro bench compare`` runs.

``compare`` pairs cases by name.  Virtual time and op counts are
deterministic, so a case whose ``vm_seconds`` (rel 1e-9) or
``op_counts`` differ is a behaviour change and fails the comparison
until the baseline is regenerated on purpose.  A baseline case missing
from the new file fails it too (the change stopped running it); a new
case not in the baseline is only reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.bench.core import BenchObservation, Trajectory

__all__ = ["CaseDelta", "Comparison", "compare", "compare_files"]


@dataclass
class CaseDelta:
    """Old-vs-new observation of one case present in both files."""

    name: str
    old: BenchObservation
    new: BenchObservation

    @property
    def vm_ratio(self) -> float | None:
        """``new / old`` virtual time, or None when the old one is zero."""
        return self.new.vm_seconds / self.old.vm_seconds if self.old.vm_seconds else None

    @property
    def behaviour_changed(self) -> bool:
        """True when virtual time (rel 1e-9) or the op counts differ."""
        return self.old.op_counts != self.new.op_counts or not math.isclose(
            self.old.vm_seconds, self.new.vm_seconds, rel_tol=1e-9, abs_tol=0.0
        )


@dataclass
class Comparison:
    """Outcome of one old-vs-new diff."""

    deltas: list[CaseDelta]
    only_old: list[str]
    only_new: list[str]

    @property
    def behaviour_changes(self) -> list[CaseDelta]:
        """Cases whose virtual time or op counts differ."""
        return [d for d in self.deltas if d.behaviour_changed]

    @property
    def ok(self) -> bool:
        """True when every baseline case ran and none changed behaviour."""
        return not self.behaviour_changes and not self.only_old

    def to_dict(self) -> dict:
        """Machine-readable report for ``bench compare --json``."""
        return {
            "ok": self.ok,
            "cases": {
                d.name: {
                    "old_vm_seconds": d.old.vm_seconds,
                    "new_vm_seconds": d.new.vm_seconds,
                    "vm_ratio": d.vm_ratio,
                    "behaviour_changed": d.behaviour_changed,
                }
                for d in self.deltas
            },
            "only_old": list(self.only_old),
            "only_new": list(self.only_new),
        }


def compare(old: Trajectory, new: Trajectory) -> Comparison:
    """Pair cases by name."""
    return Comparison(
        deltas=[CaseDelta(name, obs, new.cases[name])
                for name, obs in old.cases.items() if name in new.cases],  # fmt: skip
        only_old=sorted(set(old.cases) - set(new.cases)),
        only_new=sorted(set(new.cases) - set(old.cases)),
    )


def compare_files(old_path: str | Path, new_path: str | Path) -> Comparison:
    """Load two trajectory files and compare them."""
    return compare(Trajectory.load(old_path), Trajectory.load(new_path))
