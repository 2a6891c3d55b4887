"""Self-test of the benchmark (``PYTHONPATH=src pytest benchmarks/e2e``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``): it checks
the measuring instrument, not the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import layers, protocol, spans, suite
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, WORKLOADS
from benchmarks.e2e.workloads import generate


class FakeClock:
    """A ``perf_counter`` that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", fake)
    return fake


def test_nesting_and_self_time(clock):
    rec = spans.SpanRecorder()

    def leaf():
        clock.tick(2.0)

    def middle():
        clock.tick(1.0)
        leaf_span()
        leaf_span()
        clock.tick(0.5)

    leaf_span = rec.wrap("leaf", leaf)
    middle_span = rec.wrap("middle", middle)
    with rec.span("root"):
        clock.tick(0.25)
        middle_span()
        leaf_span()

    assert [(s[0], s[3]) for s in rec.spans] == [
        ("root", -1), ("middle", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0)
    ]  # fmt: skip
    assert rec.durations("middle") == [5.5]
    assert rec.self_times() == {"root": 0.25, "middle": 1.5, "leaf": 6.0}
    assert sum(rec.self_times().values()) == rec.root_time() == 7.75


def test_span_closes_and_callback_runs_outside_it(clock):
    rec = spans.SpanRecorder()
    seen = []

    def work():
        clock.tick(1.0)
        return 41

    def count(result):
        clock.tick(10.0)  # counting work must not be charged to the span
        seen.append(result + 1)

    assert rec.wrap("work", work, count)() == 41
    assert seen == [42] and rec.durations("work") == [1.0]

    def boom():
        clock.tick(3.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.durations("boom") == [3.0] and not rec._open


def test_patch_and_restore_instance_module_class():
    import types

    class Thing:
        def method(self):
            return "m"

    module = types.ModuleType("fake")
    module.helper = lambda: "h"
    original_helper, original_method = module.helper, Thing.__dict__["method"]
    thing = Thing()
    rec = spans.SpanRecorder()
    rec.patch(thing, "method", "inst")
    rec.patch(module, "helper", "mod")
    rec.patch(Thing, "method", "cls")
    assert thing.method() == "m" and module.helper() == "h" and Thing().method() == "m"
    assert sorted(s[0] for s in rec.spans) == ["cls", "inst", "mod"]
    rec.restore()
    assert "method" not in vars(thing)
    assert module.helper is original_helper and Thing.__dict__["method"] is original_method


def test_traced_pass_attributes_everything_and_leaves_no_wrapper():
    import repro.parallel_exec
    import repro.pic.parallel as parallel
    from repro.core.partitioner import ParticlePartitioner
    from repro.parallel_exec import kernels
    from repro.pic import simulation

    before = (
        parallel.scatter_segment,
        parallel.boris_push,
        simulation.CurveBlockDecomposition,
        repro.parallel_exec.create_backend,
        ParticlePartitioner.__dict__["initial_partition"],
    )
    rec, result, values = layers.traced_sim_pass(generate("fig17_dynamic", 3, "tiny"))
    after = (
        parallel.scatter_segment,
        parallel.boris_push,
        simulation.CurveBlockDecomposition,
        repro.parallel_exec.create_backend,
        ParticlePartitioner.__dict__["initial_partition"],
    )
    assert all(a is b for a, b in zip(before, after))
    assert parallel.scatter_segment is kernels.scatter_segment
    assert not rec._patches and not rec._open

    assert sum(rec.self_times().values()) == pytest.approx(rec.root_time(), rel=1e-9)
    in_pass = sum(values[name] for name in layers.SPAN_METRICS if not name.startswith(
        ("indexing.", "mesh.decomp", "core.initial")))  # fmt: skip
    assert in_pass == pytest.approx(result.wall, rel=1e-9)
    assert values["pic.scatter_deposit_s"] > 0 and values["machine.ops_total"] > 0
    assert 0 < values["pic.ghost_unique_frac"] < 1
    assert values["driver.self_frac"] < 0.25  # tiny passes are mostly overhead; full scale is < 5 %


def test_replay_restores_the_worker_module(tmp_path):
    from repro.pic.simulation import Simulation
    from repro.service import worker

    from benchmarks.e2e.workloads import job_specs

    plan = generate("batch_mixed", 3, "tiny")
    rec, wall, payloads, values = layers.replay_jobs(job_specs(plan), tmp_path, traced=True)
    assert worker.Simulation is Simulation
    assert len(payloads) == 4 and all(p is not None for p in payloads)
    assert len(rec.durations("service.worker_main")) == 4
    assert values["pic.checkpoint_bytes"] > 0 and values["telemetry.bytes_written"] > 0
    assert values["service.heartbeat_s"] > 0


def test_pass_count_is_fixed_by_the_arguments_alone():
    assert protocol.passes_for("fig17_dynamic", protocol.DEFAULT_SECONDS, "full") == 5
    assert protocol.passes_for("batch_mixed", protocol.DEFAULT_SECONDS, "full") == 4
    assert protocol.passes_for("fig17_dynamic", 1, "full") == 5  # never fewer
    assert protocol.passes_for("fig17_dynamic", 2 * protocol.DEFAULT_SECONDS, "full") == 10
    assert protocol.passes_for("table2_p128", protocol.DEFAULT_SECONDS, "tiny") == 1


def _fake_sets(walls_a, walls_b, vm_b=None):
    """Sets of one-workload-wide fake results, A and B interleaved as ``aa`` runs them."""

    def result(wall, vm):
        values = {"setup_s": 0.3, "wall_s": wall, "ns_per_particle_step": wall, "vm_s": vm,
                  "peak_rss_mb": 90.0}  # fmt: skip
        return {"metrics": {k: {"value": v} for k, v in values.items()}, "ops_failed": 0}

    vm_a = [10.0 + 0.01 * k for k in range(len(walls_a))]
    sets = []
    for a, b, va, vb in zip(walls_a, walls_b, vm_a, vm_b or vm_a):
        sets += [[result(a, va)] * len(WORKLOADS), [result(b, vb)] * len(WORKLOADS)]
    return sets


def test_aa_gate_is_the_issues_gate():
    def problems(sets):
        return suite._gate(suite.noise_rows(sets[0::2], sets[1::2]), sets)

    assert problems(_fake_sets([4.0, 4.1, 4.2], [4.1, 4.0, 4.2])) == []
    # one group's runs 12 % apart: over the 10 % limit, whatever the bound
    wide = problems(_fake_sets([4.0, 4.1, 4.5], [4.0, 4.1, 4.2]))
    assert wide and all("spread" in p for p in wide)
    # medians 30 % apart: over wall_s's bound
    assert any("gap" in p for p in problems(_fake_sets([4.0, 4.0, 4.0], [5.2, 5.2, 5.2])))
    # same seed, different virtual time
    drift = problems(_fake_sets([4.0] * 3, [4.0] * 3, vm_b=[10.0, 10.01, 10.02 + 1e-9]))
    assert len(drift) == len(WORKLOADS) and all("vm_s differs" in p for p in drift)


def test_benchmark_json_matches_the_metric_definitions():
    path = protocol.ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json beside this checkout")
    assert json.loads(path.read_text()) == suite.manifest()  # `manifest` rewrites it
    assert [m.name for m in END_TO_END][0] == "setup_s"
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert max(END_TO_END, key=lambda m: m.bound).name == "setup_s"
    assert len(PER_LAYER) <= 128 and all(len(why) <= 200 for why in WORKLOADS.values())


def test_bounds_cover_the_recorded_noise():
    noise = json.loads(suite.NOISE_PATH.read_text())
    bounds = {m.name: m.bound for m in END_TO_END}
    for row in noise["rows"]:
        assert row["bound"] == bounds[row["metric"]]  # NOISE.json was gated with these bounds
        assert row["bound"] >= 2 * row["gap"]
        # the driver refuses a benchmark whose quartile spread exceeds a bound
        assert row["bound"] >= max(row["iqr_a"], row["iqr_b"])
    assert noise["ok"] == (not noise["problems"])


def test_tiny_smoke_of_all_four_workloads():
    t0 = time.perf_counter()
    for workload in WORKLOADS:
        for trace, metrics in ((0, END_TO_END), (1, PER_LAYER)):
            out = subprocess.run(
                [sys.executable, str(protocol.ROOT / "benchmarks" / "e2e"), "--workload", workload,
                 "--seed", "5", "--seconds", "0", "--scale", "tiny", "--trace", str(trace)],
                cwd=protocol.ROOT, env=protocol.child_env(), check=True, capture_output=True, text=True,
            )  # fmt: skip
            result = json.loads(out.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert list(result["metrics"]) == [m.name for m in metrics]
            assert all(
                result["metrics"][m.name]["unit"] == m.unit for m in metrics
            )
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values())
    assert time.perf_counter() - t0 < 20.0


def test_a_run_leaves_no_process_behind():
    """Not even multiprocessing's resource tracker, which ends *after* its parent."""
    run = subprocess.Popen(
        [sys.executable, str(protocol.ROOT / "benchmarks" / "e2e"), "--workload", "fig17_workers2",
         "--seed", "5", "--scale", "tiny"],
        cwd=protocol.ROOT, env=protocol.child_env(), stdout=subprocess.DEVNULL,
        start_new_session=True,
    )  # fmt: skip
    assert run.wait() == 0
    left = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == run.pid and fields[0] != "Z":  # session id, state
                left.append(int(entry))
    assert left == []
