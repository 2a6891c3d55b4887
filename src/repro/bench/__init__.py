"""Unified perf-regression harness (``python -m repro bench ...``).

The subsystem has four layers:

* :mod:`repro.bench.core` — the :class:`BenchCase` / :class:`BenchResult`
  data model and the ``BENCH_<suite>.json`` trajectory schema;
* :mod:`repro.bench.runner` — warmup + repeats execution collecting
  wall-clock, virtual-machine time, op counts, and peak RSS;
* :mod:`repro.bench.registry` — named case registry;
* :mod:`repro.bench.compare` — trajectory diffing with a tier-1
  regression gate.
"""

from repro.bench.compare import CaseDelta, Comparison, compare_files, compare_suites
from repro.bench.core import (
    SCHEMA,
    BenchCase,
    BenchObservation,
    BenchResult,
    SuiteResult,
)
from repro.bench.registry import (
    all_cases,
    available_suites,
    cases_for_suite,
    ensure_registered,
    register,
)
from repro.bench.policy_suite import (
    POLICY_SCHEMA,
    render_matrix,
    run_policy_cell,
    run_policy_matrix,
    save_matrix,
)
from repro.bench.runner import peak_rss_kb, run_case, run_suite

__all__ = [
    "POLICY_SCHEMA",
    "run_policy_cell",
    "run_policy_matrix",
    "render_matrix",
    "save_matrix",
    "SCHEMA",
    "BenchCase",
    "BenchObservation",
    "BenchResult",
    "SuiteResult",
    "CaseDelta",
    "Comparison",
    "compare_files",
    "compare_suites",
    "register",
    "all_cases",
    "available_suites",
    "cases_for_suite",
    "ensure_registered",
    "run_case",
    "run_suite",
    "peak_rss_kb",
]
