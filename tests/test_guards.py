"""Tests for invariant guards, the exception taxonomy, and resume guard overrides."""

import numpy as np
import pytest

from repro.mesh import FieldState
from repro.particles import uniform_plasma
from repro.pic import Simulation, SimulationConfig
from repro.util.errors import (
    CheckpointError,
    FaultError,
    InvalidRankError,
    MessageLost,
    RankFailure,
    ReproError,
    SimulationIntegrityError,
)
from repro.util.guards import GUARD_MODES, InvariantGuard


@pytest.fixture
def parts(grid):
    p = uniform_plasma(grid, 256, rng=0)
    return [p.take(np.arange(0, 128)), p.take(np.arange(128, 256))]


class TestTaxonomy:
    def test_single_root(self):
        for exc in (
            FaultError,
            RankFailure,
            MessageLost,
            SimulationIntegrityError,
            CheckpointError,
            InvalidRankError,
        ):
            assert issubclass(exc, ReproError)

    def test_fault_family(self):
        assert issubclass(RankFailure, FaultError)
        assert issubclass(MessageLost, FaultError)

    def test_backwards_compatible_value_errors(self):
        # CheckpointError was a ValueError subclass before the taxonomy;
        # existing `except ValueError` call sites must keep catching it.
        assert issubclass(CheckpointError, ValueError)
        assert issubclass(InvalidRankError, ValueError)

    def test_rank_failure_carries_context(self):
        err = RankFailure(3, 7, "scatter")
        assert (err.rank, err.iteration, err.phase) == (3, 7, "scatter")
        assert "rank 3" in str(err)


class TestInvariantGuard:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="warn|strict"):
            InvariantGuard("off")
        assert GUARD_MODES == ("off", "warn", "strict")

    def test_clean_state_passes(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        guard.check_particles(parts, "test")
        assert guard.violations == []

    def test_count_loss_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        with pytest.raises(SimulationIntegrityError, match="particle count"):
            guard.check_particles([parts[0]], "test")

    def test_charge_drift_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[0].q[:] *= 1.5
        with pytest.raises(SimulationIntegrityError, match="charge"):
            guard.check_particles(parts, "test")

    def test_nan_position_detected(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[1].x[0] = np.nan
        with pytest.raises(SimulationIntegrityError, match="non-finite"):
            guard.check_particles(parts, "test")

    def test_field_nan_detected(self, grid):
        guard = InvariantGuard("strict")
        fields = FieldState.zeros(grid)
        fields.rho[3, 4] = np.inf
        with pytest.raises(SimulationIntegrityError, match="rho"):
            guard.check_fields(fields, "test")

    def test_warn_mode_warns_and_continues(self, parts):
        guard = InvariantGuard("warn")
        guard.capture(parts)
        with pytest.warns(UserWarning) as caught:
            guard.check_particles([parts[0]], "test")
        # both the count and the consequent charge violation are warned
        # about and recorded, not raised
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "particle count" in messages[0] and "charge" in messages[1]
        assert len(guard.violations) == 2

    def test_tiny_reassociation_tolerated(self, parts):
        guard = InvariantGuard("strict")
        guard.capture(parts)
        parts[0].q[0] += 1e-14  # float-reassociation scale noise
        guard.check_particles(parts, "test")
        assert guard.violations == []


class TestSimulationIntegration:
    def _config(self, **kw):
        base = dict(nx=16, ny=8, nparticles=256, p=2, seed=0)
        base.update(kw)
        return SimulationConfig(**base)

    def test_guards_config_validation(self):
        with pytest.raises(ValueError, match="guards"):
            self._config(guards="maybe")

    def test_off_installs_no_guard(self):
        sim = Simulation(self._config(guards="off"))
        assert sim.guard is None and sim.pic.guard is None

    def test_guarded_run_is_clean(self):
        sim = Simulation(self._config(guards="strict"))
        sim.run(3)
        assert sim.guard.violations == []

    def test_guard_catches_live_corruption(self):
        sim = Simulation(self._config(guards="strict"))
        sim.run(1)
        sim.pic.particles[0].x[0] = np.nan
        # the injected NaN reaches the CIC index cast before the guard fires
        with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
            with pytest.raises(SimulationIntegrityError):
                sim.run(1)

    def test_guard_does_not_change_accounting(self):
        off = Simulation(self._config(guards="off"))
        strict = Simulation(self._config(guards="strict"))
        r_off, r_strict = off.run(4), strict.run(4)
        assert r_off.total_time == r_strict.total_time
        assert off.vm.state_dict() == strict.vm.state_dict()


class TestStrictCheckpointLoad:
    def test_from_checkpoint_guards_override(self, tmp_path):
        sim = Simulation(SimulationConfig(nx=16, ny=8, nparticles=256, p=2, seed=0))
        sim.run(2)
        path = sim.checkpoint(tmp_path / "ck.npz")
        resumed = Simulation.from_checkpoint(path, guards="warn")
        assert resumed.config.guards == "warn"
        assert resumed.guard is not None and resumed.guard.mode == "warn"

    def test_from_checkpoint_guards_validated(self, tmp_path):
        with pytest.raises(ValueError, match="guards"):
            Simulation.from_checkpoint(tmp_path / "nope.npz", guards="loud")
