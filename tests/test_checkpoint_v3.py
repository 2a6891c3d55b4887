"""Checkpoint format v3: layout, v2 compatibility, corruption, memory.

The deleted per-rank compressed writer lives on in ``tests/_ckpt_v2.py``
as the oracle: a v2 file and a v3 file of the same ``Simulation`` must
restore to the same state and resume to the same run.
"""

import dataclasses
import shutil
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pic import Simulation, SimulationConfig
from repro.pic.checkpoint import RECORD_DTYPE, CheckpointError, load_checkpoint
from repro.pic.simulation import IterationRecord, config_from_dict, config_to_dict
from tests._ckpt_v2 import checkpoint_v2

TOTAL = 8
SPLIT = 5


def _config(**overrides) -> SimulationConfig:
    base = dict(
        nx=32, ny=16, nparticles=1024, p=4, distribution="irregular", vth=0.3, seed=3
    )
    base.update(overrides)
    return SimulationConfig(**base)


CONFIGS = {
    "lagrangian-dynamic": dict(policy="dynamic"),
    # files written before the per-rank loops became a test oracle embed
    # an ``"engine"`` key; this case stamps one into both archives
    "lagrangian-periodic-looped": dict(policy="periodic:3"),
    "eulerian-adaptive": dict(movement="eulerian", partitioning="adaptive", policy="periodic:3"),
    "modern": dict(kernel="modern", policy="periodic:3"),
}


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
class TestLayout:
    def test_record_dtype_is_the_iteration_record(self):
        assert RECORD_DTYPE.names == tuple(
            f.name for f in dataclasses.fields(IterationRecord)
        )

    def test_p128_has_few_stored_members(self, tmp_path):
        sim = Simulation(_config(nx=64, ny=32, nparticles=4096, p=128, policy="periodic:2"))
        sim.run(3)
        with zipfile.ZipFile(sim.checkpoint(tmp_path / "ck.npz")) as zf:
            infos = zf.infolist()
        assert len(infos) <= 12
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    def test_member_set_independent_of_ranks_and_iterations(self, tmp_path):
        names = []
        for p, iterations in ((2, 1), (16, 6)):
            sim = Simulation(_config(p=p, policy="periodic:2"))
            sim.run(iterations)
            with zipfile.ZipFile(sim.checkpoint(tmp_path / f"p{p}.npz")) as zf:
                names.append(sorted(zf.namelist()))
        assert names[0] == names[1]

    def test_pooled_members(self, tmp_path):
        sim = Simulation(_config(policy="periodic:2"))
        sim.run(4)
        with np.load(sim.checkpoint(tmp_path / "ck.npz")) as data:
            counts = [parts.n for parts in sim.pic.particles]
            assert data["particles"].shape == (1024, 9)
            assert data["offsets"].tolist() == np.concatenate(([0], np.cumsum(counts))).tolist()
            assert data["sort_keys"].shape == (1024,)
            assert data["fields"].shape == (10, 16, 32)
            assert data["records"].dtype == RECORD_DTYPE and data["records"].shape == (4,)
            assert data["trace_rows"].shape[0] == 4
            assert int(data["version"][0]) == 3

    def test_history_roundtrips_with_types_and_absent_phases(self, tmp_path):
        sim = Simulation(_config(policy="periodic:3"))
        sim.run(7)  # "redistribution" joins the phase rows at iteration 2
        assert len({frozenset(row) for row in sim.trace.rows}) > 1
        data = load_checkpoint(sim.checkpoint(tmp_path / "ck.npz"))
        assert data.trace_rows == sim.trace.rows
        restored = [IterationRecord(*row) for row in data.records]
        assert restored == sim.records
        for a, b in zip(restored, sim.records):
            for f in dataclasses.fields(IterationRecord):
                assert type(getattr(a, f.name)) is type(getattr(b, f.name)), f.name

    def test_checkpoint_returns_the_written_path(self, tmp_path):
        sim = Simulation(_config())
        written = sim.checkpoint(tmp_path / "noext")
        assert written == tmp_path / "noext.npz" and written.exists()


# ----------------------------------------------------------------------
# v2 files (written by the deleted formulation) still load and resume
# ----------------------------------------------------------------------
def _assert_same_state(a: Simulation, b: Simulation) -> None:
    assert len(a.pic.particles) == len(b.pic.particles)
    for pa, pb in zip(a.pic.particles, b.pic.particles):
        assert np.array_equal(pa.block, pb.block)
        assert np.array_equal(pa.ids, pb.ids)
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho"):
        assert np.array_equal(getattr(a.pic.fields, name), getattr(b.pic.fields, name)), name
    assert np.array_equal(a.vm.clocks, b.vm.clocks)
    assert a.vm.state_dict() == b.vm.state_dict()
    assert a.policy.state_dict() == b.policy.state_dict()
    assert a.records == b.records
    assert a.trace.rows == b.trace.rows
    assert np.array_equal(a.pic.decomp.curve_bounds, b.pic.decomp.curve_bounds)
    assert (a.iteration, a.n_redistributions, a.redistribution_time, a._setup_cost) == (
        b.iteration, b.n_redistributions, b.redistribution_time, b._setup_cost
    )  # fmt: skip
    assert (a.redistributor is None) == (b.redistributor is None)
    if a.redistributor is not None:
        keys_a, keys_b = a.redistributor.export_keys(), b.redistributor.export_keys()
        assert keys_a.dtype == keys_b.dtype == np.int64 and np.array_equal(keys_a, keys_b)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_v2_and_v3_restore_equal_and_resume_exactly(name, tmp_path, monkeypatch):
    config = _config(**CONFIGS[name])
    full_sim = Simulation(config)
    full = full_sim.run(TOTAL)

    first = Simulation(config)
    first.run(SPLIT)
    legacy_engine = "looped" if name.endswith("-looped") else None
    with monkeypatch.context() as patch:
        if legacy_engine:
            def stamped(cfg, **kwargs):
                return {**config_to_dict(cfg, **kwargs), "engine": legacy_engine}

            patch.setattr("repro.pic.simulation.config_to_dict", stamped)
            patch.setattr("tests._ckpt_v2.config_to_dict", stamped)
        v3 = first.checkpoint(tmp_path / "v3.npz")
        v2 = checkpoint_v2(first, tmp_path / "v2.npz")
    data_v2, data_v3 = load_checkpoint(v2), load_checkpoint(v3)
    assert (data_v2.version, data_v3.version) == (2, 3)
    assert data_v3.run_state["config"].get("engine") == legacy_engine
    assert data_v2.run_state == data_v3.run_state
    assert data_v2.records == data_v3.records
    assert data_v2.trace_rows == data_v3.trace_rows

    from_v2, from_v3 = Simulation.from_checkpoint(v2), Simulation.from_checkpoint(v3)
    _assert_same_state(from_v2, from_v3)
    _assert_same_state(from_v3, first)
    for resumed_sim in (from_v2, from_v3):
        resumed = resumed_sim.run(TOTAL - SPLIT)
        assert resumed.records == full.records
        assert resumed.to_dict() == full.to_dict()
        assert resumed.phase_breakdown == full.phase_breakdown
        _assert_same_state(resumed_sim, full_sim)


def test_legacy_engine_key_dropped_other_values_rejected():
    """``engine`` is not a config field any more: its two historical
    values (bit-identical paths) are dropped, anything else is unknown."""
    base = config_to_dict(_config(policy="dynamic"))
    assert "engine" not in base
    for legacy in ("flat", "looped"):
        assert config_from_dict({**base, "engine": legacy}) == config_from_dict(base)
    with pytest.raises(ValueError, match=r"unknown config keys: \['engine'\]"):
        config_from_dict({**base, "engine": "turbo"})
    with pytest.raises(TypeError, match="engine"):
        SimulationConfig(engine="flat")


def test_rank_kill_recovers_from_a_v2_last_checkpoint(tmp_path):
    """``_recover`` reads ``_last_checkpoint`` through the same loader."""
    from repro.machine.faults import FaultEvent, FaultPlan

    plan = FaultPlan(events=(FaultEvent(kind="kill", rank=1, iteration=6),))
    config = _config(policy="dynamic")
    results = {}
    for version, write in (("v2", checkpoint_v2), ("v3", Simulation.checkpoint)):
        first = Simulation(config)
        first.run(SPLIT)
        path = write(first, tmp_path / f"{version}.npz")
        sim = Simulation.from_checkpoint(path).install_faults(plan)
        results[version] = sim.run(TOTAL - SPLIT)
        assert sim.n_recoveries == 1 and sim.vm.p == 3
    assert results["v2"].to_dict() == results["v3"].to_dict()
    assert results["v2"].records == results["v3"].records


# ----------------------------------------------------------------------
# corruption: CheckpointError, nothing else
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid checkpoint per format, as bytes."""
    root = tmp_path_factory.mktemp("valid")
    sim = Simulation(_config(policy="periodic:2"))
    sim.run(4)
    return {
        2: checkpoint_v2(sim, root / "v2.npz").read_bytes(),
        3: sim.checkpoint(root / "v3.npz").read_bytes(),
    }


def _loads_or_checkpoint_error(path) -> None:
    try:
        data = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        assert data.iteration == 4 and data.nranks == 4


class TestCorruption:
    @settings(max_examples=120, deadline=None)
    @given(version=st.sampled_from([2, 3]), data=st.data())
    def test_fuzzed_file_loads_or_raises_checkpoint_error(
        self, valid_files, tmp_path_factory, version, data
    ):
        blob = bytearray(valid_files[version])
        path = tmp_path_factory.mktemp("fuzz") / "ck.npz"
        kind = data.draw(st.sampled_from(["truncate", "flip", "delete"]))
        if kind == "truncate":
            path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        elif kind == "flip":
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
            path.write_bytes(blob)
        else:
            path.write_bytes(blob)
            with zipfile.ZipFile(path) as src:
                names = src.namelist()
                drop = set(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3)))
                kept = [(info, src.read(info)) for info in src.infolist() if info.filename not in drop]
            with zipfile.ZipFile(path, "w") as dst:
                for info, payload in kept:
                    dst.writestr(info, payload)
        try:
            _loads_or_checkpoint_error(path)
        finally:
            shutil.rmtree(path.parent)

    @pytest.mark.parametrize("version", [2, 3])
    def test_flipped_member_byte_names_the_member(self, valid_files, tmp_path, version):
        path = tmp_path / "ck.npz"
        path.write_bytes(valid_files[version])
        member = "particles.npy" if version == 3 else "rank2_matrix.npy"
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(member)
        blob = bytearray(valid_files[version])
        # well inside the member's data, past the local header and name
        blob[info.header_offset + 30 + len(member) + info.compress_size // 2] ^= 0x10
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=member[:-4]):
            load_checkpoint(path)

    def test_contradicting_members_raise_checkpoint_error(self, valid_files, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(valid_files[3])
        members = dict(np.load(path))
        members["offsets"] = members["offsets"][:-1]  # one segment short
        np.savez(path, **members)
        with pytest.raises(CheckpointError, match="inconsistent"):
            load_checkpoint(path)


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _traced_peak(body) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        body()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    CONFIG = dict(nx=64, ny=32, nparticles=16384, p=16, policy="periodic:2")
    STATE_BYTES = 16384 * 9 * 8

    def test_checkpoint_holds_no_second_copy_of_the_particles(self, tmp_path):
        sim = Simulation(_config(**self.CONFIG))
        sim.run(2)
        sim.checkpoint(tmp_path / "warm.npz")
        peak = _traced_peak(lambda: sim.checkpoint(tmp_path / "ck.npz"))
        assert peak < self.STATE_BYTES / 2, f"{peak} B peak for {self.STATE_BYTES} B of particles"

    def test_one_run_call_peaks_no_higher_than_one_call_per_iteration(self):
        """Loop-body locals (the ``RedistributionResult``) must not outlive
        their iteration: one particle state of peak memory otherwise."""

        def peak(single: bool) -> int:
            sim = Simulation(_config(**self.CONFIG))
            sim.run(2)  # first redistribution done, pools and caches warm
            if single:
                return _traced_peak(lambda: sim.run(24))
            return _traced_peak(lambda: [sim.run(1) for _ in range(24)])

        single, looped = peak(True), peak(False)
        assert single <= looped + self.STATE_BYTES / 8, (single, looped)
