"""Data model of the perf-regression harness.

A :class:`BenchCase` is a named, registered piece of hot-path work; the
runner (:mod:`repro.bench.runner`) executes it with warmup + repeats and
produces a :class:`BenchResult` carrying four observables:

* **wall-clock** — min/mean/max over the repeats (host seconds);
* **virtual-machine time** — the cost-model seconds of the run, when
  the case exercises a :class:`repro.machine.VirtualMachine`;
* **op counts** — the machine-independent abstract-operation tallies
  (:class:`repro.util.opcount.OpCounter` categories);
* **peak RSS** — the process high-water memory mark.

A :class:`SuiteResult` aggregates cases and serializes to the
``BENCH_<suite>.json`` trajectory format that ``repro bench compare``
diffs across commits (schema ``repro-bench/1``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "SCHEMA",
    "bench_workers",
    "BenchObservation",
    "BenchCase",
    "BenchResult",
    "SuiteResult",
]

#: Version tag written into every trajectory file.
SCHEMA = "repro-bench/1"


def bench_workers() -> int:
    """Worker count of the shard-thread cases (``REPRO_BENCH_WORKERS``).

    The committed baseline is recorded at the default (0 = in-process),
    so a run with ``REPRO_BENCH_WORKERS=4`` compared against it
    measures the thread backend's wall speedup at a vm_ratio of
    exactly 1.0 — the backend is accounting-invariant by contract.
    """
    from repro.parallel_exec import resolve_workers

    return resolve_workers(os.environ.get("REPRO_BENCH_WORKERS", "0"))


def _git_commit() -> str | None:
    """The checkout's HEAD (``-dirty`` when the tree is modified); None outside git."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40", "--match="],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


@dataclass
class BenchObservation:
    """What one execution of a case reports back to the runner.

    Case functions may return one of these (preferred), or any other
    value (wall-clock only is then recorded).
    """

    vm_seconds: float | None = None  #: virtual-machine elapsed seconds
    op_counts: dict[str, float] = field(default_factory=dict)  #: abstract op tallies
    extra: dict[str, float] = field(default_factory=dict)  #: free-form numeric metadata


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark.

    Parameters
    ----------
    name:
        Unique registry key (also the JSON key).
    fn:
        ``fn(context) -> BenchObservation | Any``; the timed body.
    setup:
        Optional untimed factory whose return value is passed to ``fn``
        on every repeat (shared across repeats).
    suites:
        Suite names this case belongs to (e.g. ``("smoke", "full")``).
    tier:
        1 = regression-gated by ``bench compare``; 2 = informational.
    repeats, warmup:
        Default timed / untimed execution counts.
    description:
        One-line summary shown by ``bench list``.
    """

    name: str
    fn: Callable[[Any], Any]
    setup: Callable[[], Any] | None = None
    suites: tuple[str, ...] = ("full",)
    tier: int = 2
    repeats: int = 3
    warmup: int = 1
    description: str = ""


@dataclass
class BenchResult:
    """Measured outcome of one case."""

    name: str
    tier: int
    repeats: int
    warmup: int
    wall_samples: list[float]
    vm_seconds: float | None = None
    op_counts: dict[str, float] = field(default_factory=dict)
    peak_rss_kb: int | None = None
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def wall_min(self) -> float:
        """Fastest repeat — the low-noise statistic ``compare`` gates on."""
        return min(self.wall_samples)

    @property
    def wall_mean(self) -> float:
        """Mean over the repeats."""
        return sum(self.wall_samples) / len(self.wall_samples)

    @property
    def wall_max(self) -> float:
        """Slowest repeat."""
        return max(self.wall_samples)

    def to_dict(self) -> dict:
        """JSON form (one entry of ``SuiteResult.cases``)."""
        return {
            "tier": self.tier,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "wall": {
                "min": self.wall_min,
                "mean": self.wall_mean,
                "max": self.wall_max,
                "samples": list(self.wall_samples),
            },
            "vm_seconds": self.vm_seconds,
            "op_counts": dict(self.op_counts),
            "peak_rss_kb": self.peak_rss_kb,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "BenchResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=name,
            tier=int(data.get("tier", 2)),
            repeats=int(data.get("repeats", 1)),
            warmup=int(data.get("warmup", 0)),
            wall_samples=list(data["wall"]["samples"]),
            vm_seconds=data.get("vm_seconds"),
            op_counts=dict(data.get("op_counts", {})),
            peak_rss_kb=data.get("peak_rss_kb"),
            extra=dict(data.get("extra", {})),
        )


def _environment() -> dict:
    """Where and on what a suite ran, incl. which particle kernels."""
    import numpy

    from repro import native
    from repro.parallel_exec import resolve_workers

    kernels = native.status()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "workers": bench_workers(),
        "cores": resolve_workers("auto"),
        "commit": _git_commit(),
        "native": (
            {"active": True, "compiler": kernels.compiler, "flags": list(kernels.flags)}
            if kernels.active
            else {"active": False, "reason": kernels.reason}
        ),
    }


@dataclass
class SuiteResult:
    """All case results of one suite run, serializable to ``BENCH_<suite>.json``."""

    suite: str
    results: list[BenchResult]
    #: the ``environment`` block of a loaded file; a fresh run stamps its own
    environment: dict | None = None

    def to_dict(self) -> dict:
        """The full ``repro-bench/1`` document."""
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "environment": _environment() if self.environment is None else self.environment,
            "cases": {r.name: r.to_dict() for r in self.results},
        }

    def save(self, path: str | Path) -> Path:
        """Write the JSON document to ``path`` (atomically)."""
        from repro.util.atomic_io import atomic_write_json

        return atomic_write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "SuiteResult":
        """Read a trajectory file written by :meth:`save`."""
        data = json.loads(Path(path).read_text())
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: unsupported schema {data.get('schema')!r}; expected {SCHEMA!r}"
            )
        results = [
            BenchResult.from_dict(name, case) for name, case in data["cases"].items()
        ]
        return cls(data.get("suite", "unknown"), results, data.get("environment", {}))
