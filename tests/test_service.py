"""Tests for the job service (repro.service): jobs, cache,
sweeps, backoff, scheduler happy path, and the run-level watchdog."""

import heapq
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.batch import aggregate_batch
from repro.obs.top import BatchView
from repro.pic.simulation import Simulation, SimulationConfig, config_from_dict
from repro.service import (
    JobSpec,
    ResultCache,
    Scheduler,
    backoff_delay,
    expand_jobs,
    job_key,
    load_jobs,
    render_report,
)
from repro.service.cache import payload_digest
from repro.telemetry.stream import read_jsonl
from repro.util.errors import JobTimeout

BASE = dict(nx=16, ny=8, nparticles=256, p=4)


def spec(seed=0, iterations=4, **kw):
    return JobSpec(config=dict(BASE, seed=seed), iterations=iterations, **kw)


# ----------------------------------------------------------------------
# job model
# ----------------------------------------------------------------------
class TestJobKey:
    def test_stable_across_dict_order(self):
        a = JobSpec(config=dict(BASE, seed=1), iterations=4)
        shuffled = dict(reversed(list(dict(BASE, seed=1).items())))
        b = JobSpec(config=shuffled, iterations=4)
        assert a.key == b.key

    def test_defaults_canonicalize(self):
        # spelling out a default-valued field does not split the key
        a = JobSpec(config=dict(BASE), iterations=4)
        b = JobSpec(config=dict(BASE, scheme="hilbert"), iterations=4)
        assert a.key == b.key

    def test_result_determining_fields_split_the_key(self):
        a = spec(seed=0)
        assert a.key != spec(seed=1).key
        assert a.key != spec(seed=0, iterations=5).key
        assert a.key != JobSpec(
            config=dict(BASE, seed=0),
            iterations=4,
            fault_plan={"events": [{"kind": "kill", "rank": 1, "iteration": 2}]},
        ).key

    def test_chaos_excluded_from_key(self):
        # killing the worker never changes the result, so it shares a key
        a = spec(seed=0)
        b = JobSpec(
            config=dict(BASE, seed=0),
            iterations=4,
            chaos={"kind": "crash", "at_iteration": 1, "attempts": [0]},
        )
        assert a.key == b.key

    def test_name_and_priority_excluded(self):
        assert spec(name="x", priority=3).key == spec(name="y").key

    def test_roundtrip(self):
        s = spec(seed=2, name="n", priority=1)
        assert JobSpec.from_dict(s.to_dict()).key == s.key

    def test_code_digest_covers_every_module_a_run_imports(self, tmp_path):
        """A fresh interpreter runs each kernel, solver and the shard
        path, checkpoints, and loads the job worker; every ``repro``
        module it imports, bar observability, must be hashed."""
        from repro.service.jobs import hashed_sources

        code = (
            "import json, sys\n"
            "from repro.pic import Simulation, SimulationConfig\n"
            "import repro.service.worker\n"
            "base = dict(nx=16, ny=8, nparticles=256, p=4, policy='dynamic')\n"
            "for kw, workers in [({}, 0), ({}, 2), ({'field_solver': 'electrostatic'}, 0),\n"
            "                    ({'kernel': 'modern'}, 0)]:\n"
            "    sim = Simulation(SimulationConfig(**base, **kw), workers=workers)\n"
            f"    sim.run(3, checkpoint_every=2, checkpoint_path={str(tmp_path / 'ck.npz')!r})\n"
            "    sim.close()\n"
            "print(json.dumps({name: m.__file__ for name, m in list(sys.modules.items())\n"
            "                  if name.split('.')[0] == 'repro'}))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        imported = json.loads(done.stdout.splitlines()[-1])
        result_path = {
            Path(path).resolve()
            for name, path in imported.items()
            if name.split(".")[1:2] not in (["obs"], ["telemetry"])
        }
        assert len(result_path) > 50 and "repro.parallel_exec.kernels" in imported
        assert result_path <= set(hashed_sources())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ghost_table", "hashh", "unknown ghost_table 'hashh'; expected 'hash' or 'direct'"),
            ("field_solver", "poisson", "unknown field_solver 'poisson'; expected 'maxwell'"),
            ("scheme", "hilbrt", "unknown scheme 'hilbrt'; available: .*hilbert"),
            ("nbuckets", 0, "nbuckets must be >= 1, got 0"),
        ],
    )
    def test_config_typo_fails_at_submit(self, field, value, message):
        config = dict(BASE, **{field: value})
        with pytest.raises(ValueError, match=message):
            config_from_dict(config)
        with pytest.raises(ValueError, match=message):
            JobSpec(config=config, iterations=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(config=dict(BASE, distribution="nope"), iterations=4)
        with pytest.raises(ValueError):
            JobSpec(config=dict(BASE), iterations=0)
        with pytest.raises(ValueError):
            JobSpec(config=dict(BASE), iterations=4, chaos={"kind": "explode"})
        with pytest.raises(ValueError):
            JobSpec.from_dict({"config": dict(BASE)})


# ----------------------------------------------------------------------
# the scheduler's job queue: one ready heap
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_priority_then_fifo(self, tmp_path):
        sched = Scheduler(workers=1, cache=None, workdir=tmp_path)
        sched._open(
            [
                spec(seed=0, name="lo1"),
                spec(seed=1, name="hi", priority=5),
                spec(seed=2, name="lo2"),
            ]
        )
        assert [heapq.heappop(sched._ready)[2].name for _ in range(2)] == ["hi", "lo1"]
        # a re-queued job goes behind the jobs of its priority already waiting
        sched._enqueue(sched._records[0])
        assert [heapq.heappop(sched._ready)[2].name for _ in range(2)] == ["lo2", "lo1"]
        assert not sched._ready


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_bare_list(self):
        jobs = expand_jobs([spec(seed=0).to_dict(), spec(seed=1).to_dict()])
        assert len(jobs) == 2

    def test_jobs_object(self):
        jobs = expand_jobs({"jobs": [spec(seed=0).to_dict()]})
        assert len(jobs) == 1

    def test_cartesian_expansion_and_names(self):
        jobs = expand_jobs(
            {
                "name": "sw",
                "base": dict(BASE),
                "iterations": 3,
                "sweep": {"seed": [0, 1], "p": [2, 4]},
            }
        )
        assert len(jobs) == 4
        assert jobs[0].name == "sw-seed=0-p=2"
        assert jobs[-1].name == "sw-seed=1-p=4"
        assert {j.config["p"] for j in jobs} == {2, 4}

    def test_iterations_sweepable(self):
        jobs = expand_jobs(
            {"base": dict(BASE), "sweep": {"iterations": [2, 4]}}
        )
        assert sorted(j.iterations for j in jobs) == [2, 4]

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            expand_jobs({"base": dict(BASE)})  # no sweep, no jobs
        with pytest.raises(ValueError):
            expand_jobs({"base": dict(BASE), "sweep": {}})
        with pytest.raises(ValueError):
            expand_jobs({"base": dict(BASE), "sweep": {"seed": [0]}})  # no iterations
        with pytest.raises(ValueError):
            expand_jobs("not a document")

    def test_load_jobs_file(self, tmp_path):
        f = tmp_path / "jobs.json"
        f.write_text(json.dumps([spec(seed=0).to_dict()]))
        assert len(load_jobs(f)) == 1
        f.write_text("{broken")
        with pytest.raises(ValueError):
            load_jobs(f)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestResultCache:
    PAYLOAD = {"totals": {"total_time": 1.25}, "final_state": {"x_sum": 0.5}}

    def test_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, self.PAYLOAD)
        got = cache.get("ab" + "0" * 62)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            self.PAYLOAD, sort_keys=True
        )
        assert cache.stats() == {"hits": 1, "misses": 0, "quarantined": 0}

    def test_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.misses == 1

    @pytest.mark.parametrize(
        "corruptor",
        [
            lambda text: "not json at all {",
            lambda text: text.replace('"repro-cache/1"', '"other/9"'),
            lambda text: text.replace('"key": "ab', '"key": "ba', 1),
            lambda text: text.replace("1.25", "9.75"),  # payload edit
            lambda text: text[: len(text) // 2],  # truncation
        ],
        ids=["garbage", "schema", "key", "payload-flip", "truncated"],
    )
    def test_corruption_quarantined_and_recomputable(self, tmp_path, corruptor):
        key = "ab" + "1" * 62
        cache = ResultCache(tmp_path)
        path = cache.put(key, self.PAYLOAD)
        path.write_text(corruptor(path.read_text()))
        assert cache.get(key) is None  # miss, not a wrong result
        assert len(cache.quarantined) == 1
        assert not path.exists()  # moved aside, slot free for recompute
        quarantined = list(path.parent.glob("*.quarantined.*"))
        assert len(quarantined) == 1  # preserved for debugging
        cache.put(key, self.PAYLOAD)
        assert cache.get(key) == self.PAYLOAD

    def test_digest_is_canonical(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest({"b": 2, "a": 1})


# ----------------------------------------------------------------------
# backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("k", 1) == backoff_delay("k", 1)

    def test_jitter_decorrelates_jobs(self):
        assert backoff_delay("job-a", 0) != backoff_delay("job-b", 0)

    def test_exponential_growth_with_cap(self):
        base, cap = 0.1, 1.0
        delays = [
            backoff_delay("k", a, base=base, cap=cap) for a in range(8)
        ]
        for a, d in enumerate(delays):
            raw = min(cap, base * 2**a)
            assert 0.5 * raw <= d < raw
        assert delays[-1] <= cap


# ----------------------------------------------------------------------
# scheduler happy path
# ----------------------------------------------------------------------
class TestSchedulerBasics:
    def test_batch_matches_direct_runs_bit_identically(self, tmp_path):
        jobs = [spec(seed=s, name=f"j{s}") for s in range(3)]
        report = Scheduler(
            workers=2, cache=tmp_path / "cache", workdir=tmp_path / "work"
        ).run(jobs)
        assert report["ok"]
        assert report["counters"]["completed"] == 3
        for job in jobs:
            sim = Simulation(config_from_dict(job.config))
            ref = sim.run(job.iterations).to_dict()
            got = next(r for r in report["jobs"] if r["name"] == job.name)
            assert json.dumps(got["final_state"], sort_keys=True) == json.dumps(
                ref["final_state"], sort_keys=True
            )

    def test_cache_hits_on_resubmission(self, tmp_path):
        jobs = [spec(seed=s) for s in range(2)]
        kw = dict(cache=tmp_path / "cache", workdir=tmp_path / "work")
        cold = Scheduler(workers=2, **kw).run(jobs)
        warm = Scheduler(workers=2, **kw).run(jobs)
        assert warm["counters"]["cache_hits"] == 2
        for c, w in zip(cold["jobs"], warm["jobs"]):
            assert w["cached"] and not c["cached"]
            assert json.dumps(c["final_state"], sort_keys=True) == json.dumps(
                w["final_state"], sort_keys=True
            )

    def test_code_change_invalidates_the_cache(self, tmp_path, monkeypatch):
        """Keys hash the sources: an unchanged tree re-runs nothing, an
        edited one (a patched digest) re-runs everything."""
        from repro.service import jobs as jobs_module

        key = spec(seed=0).key
        kw = dict(cache=tmp_path / "cache", workdir=tmp_path / "work")
        Scheduler(workers=1, **kw).run([spec(seed=0)])
        jobs_module.code_digest.cache_clear()  # re-read the same tree
        assert spec(seed=0).key == key
        assert Scheduler(workers=1, **kw).run([spec(seed=0)])["counters"]["cache_hits"] == 1
        monkeypatch.setattr(jobs_module, "code_digest", lambda: "an edited tree")
        assert spec(seed=0).key != key
        report = Scheduler(workers=1, **kw).run([spec(seed=0)])
        assert report["ok"] and report["counters"]["cache_hits"] == 0
        assert not report["jobs"][0]["cached"]

    def test_a_kill_jobs_cache_entry_is_per_checkpoint_cadence(self, tmp_path):
        """Rank-failure recovery restores the latest checkpoint when there is
        one and salvages live state otherwise, so a kill job's result depends
        on the cadence: a second scheduler at another cadence misses and runs
        it.  A fault-free job still hits across cadences."""
        plan = {"detect_timeout": 0.5, "events": [{"kind": "kill", "rank": 1, "iteration": 3}]}
        config = dict(BASE, distribution="irregular", policy="periodic:2", seed=11)
        kill = JobSpec(config=config, iterations=6, fault_plan=plan, name="kill")
        plain = JobSpec(config=config, iterations=6, name="plain")
        kw = dict(workers=1, cache=tmp_path / "cache", workdir=tmp_path / "work")
        first = Scheduler(checkpoint_every=2, **kw).run([kill, plain])
        second = Scheduler(checkpoint_every=100, **kw).run([kill, plain])
        fresh = Scheduler(workers=1, cache=None, workdir=tmp_path / "fresh", checkpoint_every=100)
        alone = fresh.run([kill])
        assert first["ok"] and second["ok"] and alone["ok"]
        by_name = {job["name"]: job for job in second["jobs"]}
        assert not by_name["kill"]["cached"] and by_name["plain"]["cached"]
        keys = {job["name"]: job["key"] for job in first["jobs"]}
        assert by_name["kill"]["key"] != keys["kill"]
        assert by_name["plain"]["key"] == keys["plain"] == plain.key
        totals = [job["totals"]["total_time"] for job in (first["jobs"][0], by_name["kill"])]
        assert totals[0] != totals[1]  # the cadence moved the result
        assert json.dumps(by_name["kill"]["final_state"], sort_keys=True) == json.dumps(
            alone["jobs"][0]["final_state"], sort_keys=True
        )
        assert by_name["kill"]["totals"] == alone["jobs"][0]["totals"]

    def test_no_cache_mode(self, tmp_path):
        report = Scheduler(workers=1, cache=None, workdir=tmp_path).run(
            [spec(seed=0)]
        )
        assert report["ok"]
        assert report["params"]["cache"] is None

    def test_priority_order_with_one_worker(self, tmp_path):
        # priority desc, then submission order
        jobs = [
            spec(seed=0, name="lo1"),
            spec(seed=1, name="hi", priority=5),
            spec(seed=2, name="lo2"),
        ]
        sched = Scheduler(workers=1, cache=None, workdir=tmp_path)
        report = sched.run(jobs)
        launches = [
            r["job"]
            for r in sched.telemetry.records
            if r["kind"] == "job_launched"
        ]
        assert launches == ["hi", "lo1", "lo2"]
        assert report["ok"]

    def test_circuit_breaker_cancels_remainder(self, tmp_path):
        # an invalid fault plan event rank makes the job fail every attempt
        bad = JobSpec(
            config=dict(BASE, seed=0),
            iterations=4,
            name="bad",
            fault_plan={"events": [{"kind": "kill", "rank": 99, "iteration": 1}]},
        )
        rest = [spec(seed=s, name=f"ok{s}") for s in (1, 2)]
        report = Scheduler(
            workers=1,
            cache=None,
            workdir=tmp_path,
            retries=0,
            max_failures=1,
        ).run([bad] + rest)
        assert not report["ok"]
        assert report["circuit_open"]
        states = {r["name"]: r["state"] for r in report["jobs"]}
        assert states["bad"] == "failed"
        assert list(states.values()).count("cancelled") == 2

    def test_one_tally_when_the_circuit_opens(self, tmp_path):
        # every job the breaker cancels is a stream event, so the report,
        # the stream fold and the rollup agree on all three jobs, and the
        # report's counters are the stream registry's
        bad = JobSpec(
            config=dict(BASE, seed=0),
            iterations=4,
            name="bad",
            fault_plan={"events": [{"kind": "kill", "rank": 99, "iteration": 1}]},
        )
        rest = [spec(seed=s, name=f"ok{s}") for s in (1, 2)]
        obs = tmp_path / "obs"
        report = Scheduler(
            workers=1,
            cache=None,
            workdir=tmp_path / "work",
            retries=0,
            max_failures=1,
            obs_dir=obs,
        ).run([bad] + rest)
        states = {r["name"]: r["state"] for r in report["jobs"]}
        assert states == {"bad": "failed", "ok1": "cancelled", "ok2": "cancelled"}
        records, _ = read_jsonl(obs / "service.jsonl")
        view = BatchView()
        view.apply_all(records)
        assert {name: row["state"] for name, row in view.jobs.items()} == states
        detail = aggregate_batch(obs)["jobs_detail"]
        assert {name: row["state"] for name, row in detail.items()} == states
        aggregates = records[-1]["aggregates"]
        registry = {
            key: int(aggregates.get(name, {}).get("value", 0))
            for key, name in (
                ("completed", "jobs.completed"),
                ("failed", "jobs.failed"),
                ("cancelled", "jobs.cancelled"),
                ("cache_hits", "cache.hits"),
                ("retries", "jobs.retries"),
                ("timeouts", "jobs.timeouts"),
                ("heartbeats_lost", "heartbeats.lost"),
                ("worker_losses", "workers.lost"),
                ("quarantined", "cache.quarantined"),
                ("pool_shrinks", "pool.shrinks"),
            )
        }
        assert report["counters"] == registry
        assert registry["cancelled"] == 2

    def test_circuit_open_cancels_late_retryable_failure(self, tmp_path):
        # "bad" exhausts its retries quickly and trips the breaker while
        # "hung" is still live; the hung worker's heartbeat loss lands
        # after the circuit opened and must cancel the job, not schedule
        # a retry (a retry would never launch — launches are gated on
        # the closed circuit — and the loop would busy-spin forever)
        bad = JobSpec(
            config=dict(BASE, seed=0),
            iterations=4,
            name="bad",
            fault_plan={"events": [{"kind": "kill", "rank": 99, "iteration": 1}]},
        )
        hung = JobSpec(
            config=dict(BASE, seed=1),
            iterations=4,
            name="hung",
            chaos={"kind": "hang", "at_iteration": 0, "attempts": [0]},
        )
        sched = Scheduler(
            workers=2,
            cache=None,
            workdir=tmp_path,
            retries=1,
            max_failures=1,
            heartbeat_timeout=1.5,
        )
        out = {}
        th = threading.Thread(
            target=lambda: out.update(report=sched.run([bad, hung])), daemon=True
        )
        th.start()
        th.join(60.0)
        assert not th.is_alive(), "scheduler busy-spun after the circuit opened"
        report = out["report"]
        assert report["circuit_open"] and not report["ok"]
        states = {r["name"]: r["state"] for r in report["jobs"]}
        assert states["bad"] == "failed"
        assert states["hung"] == "cancelled"
        assert report["counters"]["cancelled"] == 1
        kinds = {r["kind"] for r in sched.telemetry.records}
        assert "job_cancelled" in kinds

    def test_no_cache_no_workdir_uses_private_tempdir(self, tmp_path, monkeypatch):
        # --no-cache without --workdir must not drop scratch checkpoints
        # into ./work in the caller's cwd
        monkeypatch.chdir(tmp_path)
        report = Scheduler(workers=1, cache=None).run([spec(seed=0)])
        assert report["ok"]
        assert not (tmp_path / "work").exists()

    def test_slow_start_survives_heartbeat_watchdog(self, tmp_path):
        # simulation construction longer than heartbeat_timeout: the
        # watchdog only arms at the worker's first message, so a slow
        # build must not be killed as hung
        job = spec(
            seed=0,
            name="slow",
            chaos={"kind": "slow_start", "seconds": 1.2, "attempts": [0]},
        )
        report = Scheduler(
            workers=1,
            cache=None,
            workdir=tmp_path,
            retries=0,
            heartbeat_timeout=0.4,
        ).run([job])
        assert report["ok"]
        assert report["counters"]["heartbeats_lost"] == 0

    def test_report_renders(self, tmp_path):
        report = Scheduler(workers=1, cache=None, workdir=tmp_path).run(
            [spec(seed=0, name="solo")]
        )
        text = render_report(report)
        assert "solo" in text and "batch: OK" in text
        with pytest.raises(ValueError):
            render_report({"schema": "other/1"})

    def test_telemetry_stream_saves(self, tmp_path):
        sched = Scheduler(workers=1, cache=tmp_path / "c", workdir=tmp_path / "w")
        sched.run([spec(seed=0)])
        path = sched.telemetry.save(tmp_path / "svc.jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["schema"] == "repro-service/2"
        assert lines[-1]["type"] == "summary"
        kinds = {r.get("kind") for r in lines if r["type"] == "event"}
        assert "job_launched" in kinds and "job_done" in kinds


# ----------------------------------------------------------------------
# run-level wall-clock watchdog
# ----------------------------------------------------------------------
class TestWalltimeWatchdog:
    def test_timeout_raises_and_checkpoints(self, tmp_path):
        ck = tmp_path / "wd.ck.npz"
        sim = Simulation(SimulationConfig(**BASE, seed=3))
        sim.enable_telemetry()
        with pytest.raises(JobTimeout) as info:
            sim.run(10**9, checkpoint_every=1, checkpoint_path=ck, walltime=0.3)
        assert info.value.iteration == sim.iteration > 0
        assert ck.exists()
        kinds = [
            r["kind"]
            for r in sim.telemetry.records
            if r.get("type") == "event"
        ]
        assert "timeout" in kinds
        # the final checkpoint resumes exactly at the interrupted iteration
        resumed = Simulation.from_checkpoint(ck)
        assert resumed.iteration == sim.iteration

    def test_resume_after_timeout_matches_uninterrupted(self, tmp_path):
        ck = tmp_path / "wd.ck.npz"
        cfg = SimulationConfig(**BASE, seed=4)
        sim = Simulation(cfg)
        with pytest.raises(JobTimeout):
            # walltime tiny: stops after the very first iteration
            sim.run(6, checkpoint_every=1, checkpoint_path=ck, walltime=1e-9)
        resumed = Simulation.from_checkpoint(ck)
        resumed.run(6 - resumed.iteration)
        ref = Simulation(cfg).run(6)
        assert json.dumps(
            resumed.result().to_dict()["final_state"], sort_keys=True
        ) == json.dumps(ref.to_dict()["final_state"], sort_keys=True)

    def test_no_timeout_for_completed_run(self):
        sim = Simulation(SimulationConfig(**BASE, seed=5))
        result = sim.run(2, walltime=3600.0)
        assert len(result.records) == 2

    def test_walltime_validation(self):
        sim = Simulation(SimulationConfig(**BASE, seed=6))
        with pytest.raises(ValueError):
            sim.run(1, walltime=0.0)
