"""The digest tool of ``tests/exactness_matrix.py`` is deterministic and worker-invariant.

A bit-identity claim rests on comparing that tool's output between two
source trees on one host, which only means something if two runs of one
tree print the same digests — at any worker count, on either kernel path
(CI re-runs this file with ``--numpy-kernels`` and in the ``multicore``
job).
"""

import json
from pathlib import Path

import pytest

from repro.pic import Simulation, SimulationConfig
from tests.exactness_matrix import (
    _BASE, _HALF, EXCHANGE_FAULTS, MOVED_BOUNDS, OBSERVED, ROWS, digest,
)  # fmt: skip

#: an era row with redistributions, the modern kernel (``workers`` degrades
#: to in-process there and must not show), a recovered rank failure, and
#: the same two with their telemetry exports hashed
_SMALL_ROWS = ("era_periodic", "modern_hash", "era_faultplan", *OBSERVED)


def test_rows_are_the_recorded_matrix():
    recorded = json.loads(
        (Path(__file__).parent.parent / "benchmarks/results/pr23_shard_threads.json").read_text()
    )["exactness"]["parent"]
    # the recorded rows first, then the rows added after that record
    assert list(ROWS) == [*recorded, *OBSERVED, *EXCHANGE_FAULTS, *MOVED_BOUNDS]


@pytest.mark.parametrize("name", MOVED_BOUNDS)
def test_moved_bounds_rows_resume_through_other_bounds(name):
    overrides, scenario = ROWS[name]
    config = SimulationConfig(**{**_BASE, **overrides})
    sim = Simulation(config)
    sim.run(_HALF)
    assert scenario == "resume" and sim.n_redistributions >= 1
    assert list(sim.pic.decomp.curve_bounds) != list(Simulation(config).decomp.curve_bounds)


@pytest.mark.parametrize("name", _SMALL_ROWS)
def test_digest_is_deterministic_and_worker_invariant(name):
    first = digest(name, workers=0)
    assert digest(name, workers=0) == first, "two runs of one tree disagree"
    assert digest(name, workers=2) == first, "the digest depends on the worker count"
