"""Data model of the virtual-time tripwire.

A :class:`BenchCase` is a named piece of hot-path work on a
:class:`~repro.machine.VirtualMachine`.  :func:`run_cases` runs each
case once and records a :class:`BenchObservation`: the cost-model
seconds and the abstract-operation tallies the case charged.  Both are
deterministic, so the :class:`Trajectory` of one commit
(``BENCH_<name>.json``, schema ``repro-bench/2``) must equal the
committed baseline exactly; ``repro bench compare`` fails on any
difference.  Host time is measured end to end by ``benchmarks/e2e``,
not here.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Any, Callable

__all__ = ["SCHEMA", "BenchObservation", "BenchCase", "Trajectory", "run_cases"]

#: Version tag written into every trajectory file.
SCHEMA = "repro-bench/2"


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
    """What one case charged to its virtual machine."""

    vm_seconds: float  #: virtual-machine elapsed seconds
    op_counts: dict[str, float] = field(default_factory=dict)  #: abstract op tallies

    def to_dict(self) -> dict:
        """JSON form (one entry of a trajectory's ``cases``)."""
        return {"vm_seconds": self.vm_seconds, "op_counts": dict(self.op_counts)}


@dataclass(frozen=True)
class BenchCase:
    """One case: ``fn(setup())`` returns its :class:`BenchObservation`."""

    name: str
    fn: Callable[[Any], BenchObservation]
    setup: Callable[[], Any] = lambda: None


def run_cases(cases: list[BenchCase], *, progress=None) -> "Trajectory":
    """Run every case once, in order.

    ``progress`` is an optional ``callable(case_name)`` invoked before
    each case — the CLI uses it for live status lines.
    """
    observed = {}
    for case in cases:
        if progress is not None:
            progress(case.name)
        observed[case.name] = case.fn(case.setup())
    return Trajectory(observed)


def _environment() -> dict:
    """Where and on what the cases ran, incl. which particle kernels."""
    import numpy

    from repro import native
    from repro.parallel_exec import resolve_workers

    kernels = native.status()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "cores": resolve_workers("auto"),
        "commit": _git_commit(),
        "native": (
            {"active": True, "compiler": kernels.compiler, "flags": list(kernels.flags)}
            if kernels.active
            else {"active": False, "reason": kernels.reason}
        ),
    }


def _number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _observation(path, name: str, case) -> BenchObservation:
    """Validate one ``cases`` entry of a loaded file."""
    if not isinstance(case, dict) or not _number(case.get("vm_seconds")):
        raise ValueError(f"{path}: case {name!r} has no numeric vm_seconds")
    ops = case.get("op_counts")
    if not isinstance(ops, dict) or not all(_number(v) for v in ops.values()):
        raise ValueError(f"{path}: case {name!r} has no op_counts mapping of numbers")
    return BenchObservation(case["vm_seconds"], dict(ops))


@dataclass
class Trajectory:
    """Every case's observation, serializable to ``BENCH_<name>.json``."""

    cases: dict[str, BenchObservation]
    #: the ``environment`` block of a loaded file; a fresh run stamps its own
    environment: dict | None = None

    def to_dict(self) -> dict:
        """The full ``repro-bench/2`` document."""
        return {
            "schema": SCHEMA,
            "environment": _environment() if self.environment is None else self.environment,
            "cases": {name: obs.to_dict() for name, obs in self.cases.items()},
        }

    def save(self, path: str | Path) -> Path:
        """Write the JSON document to ``path`` (atomically)."""
        from repro.util.atomic_io import atomic_write_json

        return atomic_write_json(Path(path), self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Trajectory":
        """Read a file written by :meth:`save`; ``ValueError`` names what is wrong."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: not a JSON object")
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: unsupported schema {data.get('schema')!r}; expected {SCHEMA!r}"
            )
        if not isinstance(data.get("cases"), dict):
            raise ValueError(f"{path}: no 'cases' mapping")
        cases = {name: _observation(path, name, case) for name, case in data["cases"].items()}
        return cls(cases, data.get("environment", {}))
