"""Taxonomy tests for repro.util.errors.

The job service ships exceptions across process boundaries, so every
public exception must (a) subclass ReproError, (b) round-trip through
pickle with attributes and message intact, and (c) carry an actionable
message — not a bare class name.
"""

import pickle

import pytest

import repro.util.errors as errors_mod
from repro.util.errors import (
    CacheCorruption,
    CheckpointError,
    FaultError,
    InvalidRankError,
    JobError,
    JobTimeout,
    MessageLost,
    RankFailure,
    ReproError,
    SimulationIntegrityError,
    TelemetrySchemaError,
)

#: One representative, fully-populated instance per public exception.
INSTANCES = [
    ReproError("the run state is inconsistent; rebuild from the last checkpoint"),
    FaultError("rank 2 reported an unrecoverable transport fault"),
    RankFailure(3, iteration=17, phase="scatter"),
    MessageLost(1, 2, attempts=4),
    SimulationIntegrityError("charge not conserved: drift 1.2e-3 exceeds 1e-9 budget"),
    CheckpointError("file run.ck.npz is truncated: missing key 'fields/ez'"),
    TelemetrySchemaError("run.metrics.jsonl:7 is not a JSON object"),
    InvalidRankError("destination rank 9 outside [0, 8)"),
    JobError("sweep-seed=3", "worker died (exitcode -9)", attempt=1),
    JobTimeout("sweep-seed=5", 30.0, 31.7, iteration=42, attempt=2),
    CacheCorruption("/cache/ab/abc123.json", "payload digest mismatch"),
]


def test_every_public_exception_is_covered():
    """INSTANCES spans __all__ exactly, so new classes must join the suite."""
    covered = {type(e).__name__ for e in INSTANCES}
    assert covered == set(errors_mod.__all__)


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
class TestTaxonomy:
    def test_subclasses_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_message_is_actionable(self, exc):
        # more than a class name: a sentence with concrete detail
        text = str(exc)
        assert len(text) > 20
        assert text != type(exc).__name__

    def test_pickle_roundtrip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert clone.args == exc.args

    def test_pickle_preserves_attributes(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        public = {
            k: v for k, v in vars(exc).items() if not k.startswith("_")
        }
        for key, value in public.items():
            assert getattr(clone, key) == value, key


class TestHierarchy:
    def test_fault_subtypes(self):
        assert issubclass(RankFailure, FaultError)
        assert issubclass(MessageLost, FaultError)

    def test_job_timeout_is_job_error(self):
        assert issubclass(JobTimeout, JobError)

    def test_value_error_compatibility(self):
        # pre-existing except ValueError call sites keep working
        assert issubclass(CheckpointError, ValueError)
        assert issubclass(InvalidRankError, ValueError)
        assert issubclass(TelemetrySchemaError, ValueError)

    def test_rank_failure_attributes(self):
        exc = RankFailure(5, iteration=3, phase="gather")
        assert (exc.rank, exc.iteration, exc.phase) == (5, 3, "gather")

    def test_job_timeout_attributes(self):
        exc = JobTimeout("j", 10.0, 12.5, iteration=7)
        assert exc.limit == 10.0
        assert exc.elapsed == 12.5
        assert exc.iteration == 7
