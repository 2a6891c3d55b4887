"""The worker makes one ``Simulation.run`` call per attempt.

Heartbeats, progress and the chaos trigger hang on ``run``'s
``on_iteration`` callback; the messages on the pipe are those of the
deleted ``while: sim.run(1)`` loop, kept here as the oracle.
"""

import pytest

from repro.machine.faults import FaultPlan
from repro.pic.simulation import Simulation, config_from_dict
from repro.service import JobSpec
from repro.service import worker
from repro.service.worker import scratch_checkpoint, worker_main

BASE = dict(nx=16, ny=8, nparticles=256, p=4, distribution="irregular", policy="periodic:2")
ITERATIONS = 6
KILL = {"detect_timeout": 0.5, "events": [{"kind": "kill", "rank": 1, "iteration": 3}]}


class Conn:
    """The worker's pipe end, recording."""

    def __init__(self):
        self.messages = []
        self.closed = False

    def send(self, message):
        self.messages.append(message)

    def close(self):
        self.closed = True

    def kinds(self):
        return [kind for kind, _ in self.messages]

    def beats(self):
        return [body["iteration"] for kind, body in self.messages if kind == "heartbeat"]


def _spec(**kw) -> JobSpec:
    return JobSpec(config=dict(BASE, seed=kw.pop("seed", 0)), iterations=ITERATIONS, **kw)


def _run_worker(spec, workdir, *, attempt=0, checkpoint_every=2) -> Conn:
    workdir.mkdir(exist_ok=True)
    conn = Conn()
    worker_main(conn, spec.to_dict(), str(workdir), checkpoint_every, attempt)
    assert conn.closed
    return conn


def _old_loop(spec, workdir, *, checkpoint_every=2) -> list:
    """The deleted worker loop: one ``run(1)`` and one ``result()`` more."""
    workdir.mkdir(exist_ok=True)
    ck = scratch_checkpoint(workdir, spec.key)
    sim = Simulation(config_from_dict(spec.config))
    if spec.fault_plan:
        sim.install_faults(FaultPlan.from_dict(spec.fault_plan))
    messages = []
    while sim.iteration < spec.iterations:
        sim.run(1, checkpoint_every=checkpoint_every, checkpoint_path=ck)
        messages.append(
            (
                "heartbeat",
                {
                    "iteration": sim.iteration,
                    "total": spec.iterations,
                    "imbalance": worker._last_imbalance(sim),
                },
            )
        )
    messages.append(("done", {"payload": sim.result().to_dict()}))
    return messages


@pytest.fixture
def spy(monkeypatch):
    """Count ``Simulation.run`` / ``Simulation.result`` calls."""
    calls = {"run": [], "result": 0}
    real_run, real_result = Simulation.run, Simulation.result

    def run(self, niters, **kwargs):
        calls["run"].append(niters)
        return real_run(self, niters, **kwargs)

    def result(self):
        calls["result"] += 1
        return real_result(self)

    monkeypatch.setattr(Simulation, "run", run)
    monkeypatch.setattr(Simulation, "result", result)
    return calls


class TestOneRunPerAttempt:
    def test_fresh_attempt(self, tmp_path, spy):
        conn = _run_worker(_spec(), tmp_path)
        assert spy == {"run": [ITERATIONS], "result": 1}
        assert conn.kinds() == ["started"] + ["heartbeat"] * ITERATIONS + ["done"]
        assert conn.beats() == list(range(1, ITERATIONS + 1))
        assert conn.messages[0][1]["iteration"] == 0

    def test_resumed_attempt_beats_only_the_iterations_it_runs(self, tmp_path, spy):
        spec = _spec()
        sim = Simulation(config_from_dict(spec.config))
        sim.run(4)
        sim.checkpoint(scratch_checkpoint(tmp_path, spec.key))
        spy["run"].clear()
        spy["result"] = 0
        conn = _run_worker(spec, tmp_path, attempt=1)
        assert spy == {"run": [ITERATIONS - 4], "result": 1}
        assert conn.messages[0] == ("started", {"pid": conn.messages[0][1]["pid"], "iteration": 4})
        assert conn.beats() == [5, 6]
        reference = Simulation(config_from_dict(spec.config)).run(ITERATIONS).to_dict()
        assert conn.messages[-1] == ("done", {"payload": reference})

    def test_attempt_resumed_at_the_end_runs_nothing(self, tmp_path, spy):
        spec = _spec()
        sim = Simulation(config_from_dict(spec.config))
        reference = sim.run(ITERATIONS).to_dict()
        sim.checkpoint(scratch_checkpoint(tmp_path, spec.key))
        conn = _run_worker(spec, tmp_path, attempt=1)
        assert conn.kinds() == ["started", "done"]
        assert conn.messages[-1][1]["payload"] == reference


class TestSameMessagesAsTheOldLoop:
    @pytest.mark.parametrize("checkpoint_every", [2, 100], ids=["restore", "salvage"])
    def test_rank_failure_recovered_inside_run(self, tmp_path, spy, checkpoint_every):
        """A rank kill at iteration 3 is recovered inside the single ``run``
        (from the scratch checkpoint, or by live salvage without one)."""
        spec = _spec(seed=11, fault_plan=KILL)
        expected = _old_loop(spec, tmp_path / "old", checkpoint_every=checkpoint_every)
        spy["run"].clear()
        spy["result"] = 0
        conn = _run_worker(spec, tmp_path / "new", checkpoint_every=checkpoint_every)
        assert spy == {"run": [ITERATIONS], "result": 1}
        assert conn.messages[1:] == expected
        assert conn.messages[-1][1]["payload"]["totals"]["n_recoveries"] == 1
        assert conn.beats() == list(range(1, ITERATIONS + 1))  # the replay does not beat twice

    def test_fault_free(self, tmp_path):
        spec = _spec(seed=2)
        assert _run_worker(spec, tmp_path / "new").messages[1:] == _old_loop(spec, tmp_path / "old")

    def test_callback_exception_fails_the_attempt(self, tmp_path, monkeypatch):
        """Whatever the heartbeat path raises ends the run in a ``failed`` message."""

        def boom(sim):
            if sim.iteration == 3:
                raise OSError("pipe gone")
            return 1.0

        monkeypatch.setattr(worker, "_last_imbalance", boom)
        conn = _run_worker(_spec(), tmp_path)
        assert conn.kinds() == ["started", "heartbeat", "heartbeat", "failed"]
        assert "OSError: pipe gone" in str(conn.messages[-1][1]["error"])


class TestChaosTrigger:
    @pytest.mark.parametrize("start", [0, 4])
    def test_evaluated_before_every_iteration_it_runs(self, tmp_path, monkeypatch, start):
        """Once per iteration, before it — first at the resume iteration,
        never past the end — interleaved with the heartbeats as before."""
        spec = _spec(chaos={"kind": "crash", "at_iteration": 99})
        if start:
            sim = Simulation(config_from_dict(spec.config))
            sim.run(start)
            sim.checkpoint(scratch_checkpoint(tmp_path, spec.key))
        conn = Conn()
        monkeypatch.setattr(
            worker,
            "_maybe_sabotage",
            lambda chaos, iteration, attempt: conn.messages.append(("trigger", iteration)),
        )
        worker_main(conn, spec.to_dict(), str(tmp_path), 2, 0)
        body = [
            m[1] if m[0] == "trigger" else f"beat{m[1]['iteration']}"
            for m in conn.messages[1:-1]
        ]
        expected = [start]
        for k in range(start + 1, ITERATIONS):
            expected += [f"beat{k}", k]
        assert body == expected + [f"beat{ITERATIONS}"]

    def test_trigger_sees_the_checkpoint_of_its_iteration(self, tmp_path, monkeypatch):
        """The callback runs after the iteration's checkpoint, so a crash
        before iteration 4 leaves the iteration-4 checkpoint behind."""
        spec = _spec(chaos={"kind": "crash", "at_iteration": 4})
        seen = {}

        def sabotage(chaos, iteration, attempt):
            if iteration == chaos["at_iteration"]:
                from repro.pic.checkpoint import load_checkpoint

                seen["iteration"] = load_checkpoint(scratch_checkpoint(tmp_path, spec.key)).iteration

        monkeypatch.setattr(worker, "_maybe_sabotage", sabotage)
        _run_worker(spec, tmp_path)
        assert seen == {"iteration": 4}


class TestOnIteration:
    def test_called_after_each_iteration_and_its_checkpoint(self, tmp_path):
        sim = Simulation(config_from_dict(dict(BASE, seed=1)))
        path = tmp_path / "ck.npz"
        seen = []

        def hook(s):
            assert s is sim
            from repro.pic.checkpoint import load_checkpoint

            seen.append((s.iteration, load_checkpoint(path).iteration if path.exists() else None))

        result = sim.run(5, checkpoint_every=2, checkpoint_path=path, on_iteration=hook)
        assert seen == [(1, None), (2, 2), (3, 2), (4, 4), (5, 4)]
        assert len(result.records) == 5

    def test_results_identical_with_and_without_callback(self):
        config = dict(BASE, seed=5, policy="dynamic")
        bare = Simulation(config_from_dict(config)).run(8)
        hooked = Simulation(config_from_dict(config)).run(8, on_iteration=lambda s: None)
        stepped_sim = Simulation(config_from_dict(config))
        for _ in range(8):
            stepped = stepped_sim.run(1)
        assert bare.to_dict() == hooked.to_dict() == stepped.to_dict()
        assert bare.records == hooked.records == stepped.records


class TestKilledJobResumes:
    def test_payload_bit_identical_to_the_uninterrupted_job(self, tmp_path):
        """SIGKILL before iteration 4: the retry resumes from the stored
        v3 scratch checkpoint and delivers the uninterrupted payload."""
        import zipfile

        from repro.pic.checkpoint import load_checkpoint
        from repro.service import Scheduler

        crash = _spec(seed=7, chaos={"kind": "crash", "at_iteration": 4, "attempts": [0]})
        killed = Scheduler(workers=1, retries=0, workdir=tmp_path / "killed").run([crash])
        assert killed["counters"]["failed"] == 1
        ck = scratch_checkpoint(tmp_path / "killed", crash.key)
        with zipfile.ZipFile(ck) as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        data = load_checkpoint(ck)
        assert data.iteration == 4

        scheduler = Scheduler(workers=1, retries=1, cache=tmp_path / "cache")
        retried = scheduler.run([crash])
        assert retried["counters"]["retries"] == 1 and retried["counters"]["completed"] == 1
        assert not list((tmp_path / "cache" / "work").glob("*.ck.npz"))  # deleted on success
        payload = scheduler.cache.get(crash.key)
        assert payload.pop("correlation")["attempt"] == 1
        assert payload == Simulation(config_from_dict(crash.config)).run(ITERATIONS).to_dict()
