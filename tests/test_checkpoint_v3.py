"""Checkpoint format v3: layout, refused formats and run states, corruption, memory."""

import dataclasses
import json
import shutil
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pic import Simulation, SimulationConfig
from repro.pic.checkpoint import RECORD_DTYPE, CheckpointError, load_checkpoint, save_checkpoint
from repro.pic.simulation import IterationRecord, config_from_dict, config_to_dict

TOTAL = 8
SPLIT = 5


def _config(**overrides) -> SimulationConfig:
    base = dict(
        nx=32, ny=16, nparticles=1024, p=4, distribution="irregular", vth=0.3, seed=3
    )
    base.update(overrides)
    return SimulationConfig(**base)


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
        assert len(infos) == 10
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
            assert "trace_rows" not in data.files  # the metrics stream holds the phase rows
            assert int(data["version"][0]) == 3

    def test_history_roundtrips_with_types_and_absent_phases(self, tmp_path):
        """Records round-trip with their types, and a resumed run's phase rows
        (its metrics stream's) are the uninterrupted run's, those where
        "redistribution" is absent included."""
        config = _config(policy="periodic:3")
        full = Simulation(config)
        full.enable_telemetry()
        full.run(10)  # "redistribution" joins the phase rows every third iteration
        sim = Simulation(config)
        sim.run(7)
        data = load_checkpoint(sim.checkpoint(tmp_path / "ck.npz"))
        restored = [IterationRecord(*row) for row in data.records]
        assert restored == sim.records
        for a, b in zip(restored, sim.records):
            for f in dataclasses.fields(IterationRecord):
                assert type(getattr(a, f.name)) is type(getattr(b, f.name)), f.name
        resumed = Simulation.from_checkpoint(tmp_path / "ck.npz")
        resumed.enable_telemetry()
        resumed.run(3)

        def phase_rows(s):
            return [rec["phase_time"] for rec in s.telemetry.records if rec["type"] == "iteration"]

        tail = phase_rows(full)[7:]
        assert phase_rows(resumed) == tail
        assert len({frozenset(row) for row in tail}) > 1

    def test_checkpoint_returns_the_written_path(self, tmp_path):
        sim = Simulation(_config())
        written = sim.checkpoint(tmp_path / "noext")
        assert written == tmp_path / "noext.npz" and written.exists()


# ----------------------------------------------------------------------
# what cannot resume: CheckpointError naming the version or the key
# ----------------------------------------------------------------------
def _legacy_archive(path, version: int) -> None:
    """The member layout of the deleted formats: per-rank and per-field members."""
    sim = Simulation(_config(p=2))
    members = {
        "version": np.array([version]),
        "meta": np.array([32, 16, 0, 2], dtype=np.int64),
        "extent": np.array([sim.grid.lx, sim.grid.ly]),
    }
    if version == 2:
        members["format"] = np.array(["repro-checkpoint"])
        members["state_json"] = np.array([json.dumps({"run_state": None, "has_sort_keys": False})])
    for r, parts in enumerate(sim.pic.particles):
        members[f"rank{r}_matrix"] = np.ascontiguousarray(parts.block.T)
    for name in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho"):
        members[f"field_{name}"] = getattr(sim.pic.fields, name)
    np.savez(path, **members)


@pytest.mark.parametrize("version", [1, 2])
def test_v1_and_v2_archives_are_refused_naming_the_version(tmp_path, version):
    path = tmp_path / f"v{version}.npz"
    _legacy_archive(path, version)
    with pytest.raises(CheckpointError, match=f"checkpoint version {version} not supported"):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match=f"version {version}"):
        Simulation.from_checkpoint(path)


def _drop(key):
    def edit(run_state: dict) -> None:
        del run_state[key]

    return edit


#: edit of a valid ``run_state`` -> what the CheckpointError must say
RUN_STATE_EDITS = {
    "unknown-config-key": (
        lambda rs: rs["config"].update(warp=9), r"run_state\.config .*unknown config keys.*warp"
    ),
    "config-p-zero": (lambda rs: rs["config"].update(p=0), r"run_state\.config .*p must be >= 1"),
    "no-vm": (_drop("vm"), "run state has no 'vm' key"),
    "no-decomp-bounds": (_drop("decomp_bounds"), "run state has no 'decomp_bounds' key"),
    "short-decomp-bounds": (
        lambda rs: rs.update(decomp_bounds=[0, 5]), r"run_state\.decomp_bounds is malformed"
    ),
    "unknown-policy": (
        lambda rs: rs.update(policy={"name": "nope"}), r"run_state\.policy .*unknown policy type"
    ),
    "policy-null": (lambda rs: rs.update(policy=None), r"run_state\.policy is malformed"),
    "correlation-not-a-dict": (
        lambda rs: rs.update(correlation="x"), r"run_state\.correlation is malformed"
    ),
    "physical-state-only": (None, "has no run state"),
}


@pytest.mark.parametrize("case", sorted(RUN_STATE_EDITS))
def test_malformed_run_state_raises_checkpoint_error_naming_it(tmp_path, case):
    edit, message = RUN_STATE_EDITS[case]
    sim = Simulation(SimulationConfig(nx=16, ny=8, nparticles=256, p=4))
    sim.run(3)
    path = tmp_path / "ck.npz"
    if edit is None:
        save_checkpoint(path, sim.grid, sim.pic.fields, sim.pic.particles, sim.iteration)
    else:
        members = dict(np.load(sim.checkpoint(path)))
        state = json.loads(str(members["state_json"][0]))
        edit(state["run_state"])
        members["state_json"] = np.array([json.dumps(state)])
        np.savez(path, **members)
    with pytest.raises(CheckpointError, match=message):
        Simulation.from_checkpoint(path)


def test_legacy_engine_key_is_an_unknown_key():
    """``engine`` is not a config field: every value of it, the two that
    once selected a stepper included, is an unknown key."""
    base = config_to_dict(_config(policy="dynamic"))
    assert "engine" not in base
    for value in ("flat", "looped", "turbo"):
        with pytest.raises(ValueError, match=r"unknown config keys: \['engine'\]"):
            config_from_dict({**base, "engine": value})
    with pytest.raises(TypeError, match="engine"):
        SimulationConfig(engine="flat")


def test_checkpoint_with_the_former_phase_rows_member_resumes(tmp_path):
    """A v3 file of the earlier layout, with a ``trace_rows`` member and a
    ``trace_phases`` header key, loads and resumes to the uninterrupted run."""
    config = _config(policy="dynamic")
    expected = Simulation(config).run(TOTAL)
    first = Simulation(config)
    first.run(SPLIT)
    path = tmp_path / "ck.npz"
    members = dict(np.load(first.checkpoint(path)))
    state = json.loads(str(members["state_json"][0]))
    state["trace_phases"] = ["field", "gather", "push", "scatter"]
    members["state_json"] = np.array([json.dumps(state)])
    members["trace_rows"] = np.full((SPLIT, 4), 1e-3)
    np.savez(path, **members)
    sim = Simulation.from_checkpoint(path)
    result = sim.run(TOTAL - SPLIT)
    assert result.to_dict() == expected.to_dict()
    assert result.records == expected.records


def test_rank_kill_recovers_from_the_last_checkpoint(tmp_path):
    """A resumed run recovers from the checkpoint it came from, exactly as
    the uninterrupted run recovers from the one it wrote there."""
    from repro.machine.faults import FaultEvent, FaultPlan

    plan = FaultPlan(events=(FaultEvent(kind="kill", rank=1, iteration=6),))
    config = _config(policy="dynamic")
    full = Simulation(config).install_faults(plan)
    expected = full.run(TOTAL, checkpoint_every=SPLIT, checkpoint_path=tmp_path / "full.npz")
    first = Simulation(config)
    first.run(SPLIT)
    sim = Simulation.from_checkpoint(first.checkpoint(tmp_path / "ck.npz")).install_faults(plan)
    result = sim.run(TOTAL - SPLIT)
    assert sim.n_recoveries == 1 and sim.vm.p == 3
    assert result.to_dict() == expected.to_dict()
    assert result.records == expected.records


# ----------------------------------------------------------------------
# corruption: CheckpointError, nothing else
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def valid_file(tmp_path_factory):
    """One valid checkpoint, as bytes."""
    sim = Simulation(_config(policy="periodic:2"))
    sim.run(4)
    return sim.checkpoint(tmp_path_factory.mktemp("valid") / "ck.npz").read_bytes()


def _loads_or_checkpoint_error(path) -> None:
    try:
        data = load_checkpoint(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
    else:
        assert data.iteration == 4 and data.nranks == 4


class TestCorruption:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_fuzzed_file_loads_or_raises_checkpoint_error(self, valid_file, tmp_path_factory, data):
        blob = bytearray(valid_file)
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
    def test_flipped_member_byte_names_the_member(self, valid_file, tmp_path, version):
        # a v2 archive is refused, but a corrupt version member is reported
        # as corruption, not misread as some other version
        path = tmp_path / "ck.npz"
        if version == 3:
            path.write_bytes(valid_file)
        else:
            _legacy_archive(path, version)
        member = "particles.npy" if version == 3 else "version.npy"
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo(member)
        blob = bytearray(path.read_bytes())
        # well inside the member's data, past the local header and name
        blob[info.header_offset + 30 + len(member) + info.compress_size // 2] ^= 0x10
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match=f"member {member[:-4]!r} is corrupt"):
            load_checkpoint(path)

    def test_contradicting_members_raise_checkpoint_error(self, valid_file, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(valid_file)
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
