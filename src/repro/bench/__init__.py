"""The virtual-time tripwire (``python -m repro bench ...``).

* :mod:`repro.bench.core` — :class:`BenchCase`, :func:`run_cases` (each
  case once) and the ``repro-bench/2`` :class:`Trajectory` file;
* :mod:`repro.bench.suites` — the cases, one plain list;
* :mod:`repro.bench.compare` — the diff that fails on any change in
  ``vm_seconds`` or ``op_counts``, or on a vanished case.
"""

from repro.bench.compare import CaseDelta, Comparison, compare, compare_files
from repro.bench.core import SCHEMA, BenchCase, BenchObservation, Trajectory, run_cases
from repro.bench.suites import CASES

__all__ = [
    "SCHEMA",
    "BenchCase",
    "BenchObservation",
    "Trajectory",
    "run_cases",
    "CASES",
    "CaseDelta",
    "Comparison",
    "compare",
    "compare_files",
]
