"""Tests for the unified run telemetry layer (repro.telemetry).

Pins the contracts of DESIGN.md §5.4:

* zero-cost when off — a run without telemetry is bit-identical to the
  pre-telemetry code path (clocks, ops, result dicts);
* enabled overhead stays under 5% wall-clock;
* exported artifacts conform to their schemas (``repro-trace/1`` /
  ``repro-metrics/1``) — also when the driver steps the per-rank
  oracle (``tests/_looped_oracle.py``; the ``looped`` parameter value);
* SAR decision records replay to the exact fire/skip verdicts;
* telemetry streams stay consistent across rank-failure shrink (no
  stale rank columns) and across checkpoint/resume.
"""

import json
import time

import numpy as np
import pytest

from repro.cli import main
from repro.machine import FaultEvent, FaultPlan
from repro.pic import Simulation, SimulationConfig
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunTelemetry,
    SpanTracer,
    TelemetrySchemaError,
    render_comparison,
    report_from_files,
    validate_metrics,
    validate_trace,
)
from tests._looped_oracle import SIMULATIONS


def _config(**kw):
    base = dict(
        nx=32,
        ny=16,
        nparticles=2048,
        p=4,
        distribution="irregular",
        policy="dynamic",
        seed=7,
    )
    base.update(kw)
    return SimulationConfig(**base)


# ----------------------------------------------------------------------
# unit layer: tracer + registry
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_records_only_advancing_ranks(self):
        tracer = SpanTracer()
        tracer.set_iteration(3)
        tracer.record_phase("scatter", np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert (span.rank, span.iteration, span.name) == (0, 3, "scatter")
        assert span.duration == 2.0

    def test_chrome_export_shape(self):
        tracer = SpanTracer()
        tracer.note_ranks(2)
        tracer.set_iteration(0)
        tracer.record_phase("push", np.array([0.0, 0.0]), np.array([0.5, 0.25]))
        # instants and counter tracks are views of the metrics stream's records
        records = [
            {"type": "event", "kind": "checkpoint", "iteration": 0, "t": 0.5, "path": "ck.npz"},
            {"type": "event", "kind": "guard_violation", "message": "no virtual time: no marker"},
            {"type": "iteration", "t_end": 0.5, "imbalance": 1.5, "particles_per_rank": [3, 1]},
        ]
        doc = validate_trace(tracer.to_chrome(records, {"batch_id": "b"}))
        codes = [ev["ph"] for ev in doc["traceEvents"]]
        assert codes.count("M") == 3  # process + 2 rank lanes
        assert codes.count("X") == 2 and "i" in codes and "C" in codes
        span = next(ev for ev in doc["traceEvents"] if ev["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 0.5e6
        (marker,) = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert marker["args"] == {"iteration": 0, "path": "ck.npz"}
        counters = {ev["name"]: ev["args"] for ev in doc["traceEvents"] if ev["ph"] == "C"}
        assert counters == {"load imbalance": {"max/mean": 1.5}, "particles": {"max_per_rank": 3.0}}
        assert doc["otherData"]["correlation"] == {"batch_id": "b"}

    def test_trace_is_deterministic(self, tmp_path):
        texts = []
        for run in range(2):
            sim = Simulation(_config())
            sim.enable_telemetry()
            sim.run(5)
            path = sim.telemetry.save_trace(tmp_path / f"t{run}.json")
            texts.append(path.read_text())
        assert texts[0] == texts[1]


class TestMetricsRegistry:
    def test_counter_monotonic(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(2.5)
        assert counter.snapshot() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_value(self):
        gauge = Gauge("g")
        assert gauge.snapshot() is None
        gauge.set(1.0)
        gauge.set(4.0)
        assert gauge.snapshot() == 4.0

    def test_histogram_summary(self):
        hist = Histogram("h")
        for v in (1.0, 3.0, 2.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 3 and snap["min"] == 1.0 and snap["max"] == 3.0
        assert snap["mean"] == pytest.approx(2.0)

    def test_names_pinned_to_kind(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert "x" in reg and reg.names() == ["x"]

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(1.0)
        reg.counter("a").inc(2.0)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"kind": "counter", "value": 2.0}


# ----------------------------------------------------------------------
# the zero-cost contract
# ----------------------------------------------------------------------
class TestZeroCostWhenOff:
    def test_bit_identical_results(self):
        cfg = _config()
        plain = Simulation(cfg)
        r_plain = plain.run(10)
        traced = Simulation(cfg)
        traced.enable_telemetry()
        r_traced = traced.run(10)

        assert traced.vm.elapsed() == plain.vm.elapsed()
        assert traced.vm.ops.as_dict() == plain.vm.ops.as_dict()
        assert traced.vm.phase_breakdown() == plain.vm.phase_breakdown()

        d_plain, d_traced = r_plain.to_dict(), r_traced.to_dict()
        assert "telemetry" not in d_plain  # off-run dict is unchanged
        assert d_traced.pop("telemetry")  # on-run adds only this block
        assert d_traced == d_plain

    def test_enabled_overhead_under_five_percent(self, numpy_kernels):
        # One traced run, telemetry's entry points timed in place with
        # ``process_time``: every iteration is one round of "hooks" against
        # "everything else" under the same host conditions, and the verdict
        # is the median round.  Differencing two whole runs cannot resolve
        # 5 % on a shared host (their walls spread +-10 %); the two parts of
        # one iteration can.  Measured at p=32, n=8192, 64x32 cells, on the
        # step the budget was set against, the NumPy-kernel step
        # (`numpy_kernels`): the bookkeeping is a fixed cost per iteration,
        # which a faster step must not turn into a looser or a failing bound.
        sim = Simulation(_config(nx=64, ny=32, nparticles=8192, p=32))
        tel = sim.enable_telemetry()
        spent = 0.0

        def timed(hook):
            def wrapper(*args, **kwargs):
                nonlocal spent
                t0 = time.process_time()
                try:
                    return hook(*args, **kwargs)
                finally:
                    spent += time.process_time() - t0

            return wrapper

        for owner, names in (
            (tel, ("set_iteration", "begin_iteration", "end_iteration", "record_sar_decision")),
            (tel.tracer, ("record_phase",)),
        ):
            for name in names:
                setattr(owner, name, timed(getattr(owner, name)))
        sim.policy.decision_sink = tel.record_sar_decision  # bound before the wrap
        rounds = []
        mark = (time.process_time(), spent)

        def close_round(_sim):
            nonlocal mark
            now = time.process_time()
            total, hooks = now - mark[0], spent - mark[1]
            rounds.append(hooks / (total - hooks))
            mark = (time.process_time(), spent)

        sim.run(12, on_iteration=close_round)
        overhead = float(np.median(rounds))
        assert len(tel.tracer.spans) > 12 * 32, "the traced hooks did not run"
        assert overhead <= 0.05, f"telemetry overhead above 5%: {overhead:.1%} (rounds {rounds})"


# ----------------------------------------------------------------------
# exported artifacts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["flat", "looped"])
class TestExports:
    def test_trace_and_metrics_validate(self, engine, tmp_path):
        sim = SIMULATIONS[engine](_config())
        sim.enable_telemetry()
        result = sim.run(8)
        trace = validate_trace(sim.telemetry.save_trace(tmp_path / "t.json"))
        metrics = validate_metrics(sim.telemetry.save_metrics(tmp_path / "m.jsonl"))

        assert metrics.p == 4 and len(metrics.iterations) == 8
        assert metrics.summary["aggregates"]["iterations"]["value"] == 8.0
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert {ev["tid"] for ev in spans} == set(range(4))
        assert {ev["name"] for ev in spans} >= {"scatter", "field", "gather", "push"}

        # per-iteration phase increments must reassemble the machine's
        # phase breakdown exactly
        totals: dict[str, float] = {}
        for rec in metrics.iterations:
            for phase, dt in rec["phase_time"].items():
                totals[phase] = totals.get(phase, 0.0) + dt
        for phase, seconds in sim.vm.phase_breakdown().items():
            assert totals.get(phase, 0.0) == pytest.approx(seconds, abs=1e-12)

        # iteration records tile the run: t_iter sums to total time
        t_sum = sum(rec["t_iter"] for rec in metrics.iterations)
        assert t_sum == pytest.approx(result.total_time, abs=1e-12)

    def test_result_dict_aggregates(self, engine):
        sim = SIMULATIONS[engine](_config())
        sim.enable_telemetry()
        out = sim.run(6).to_dict()
        agg = out["telemetry"]
        assert agg["iterations"]["value"] == 6.0
        assert agg["iteration.time"]["value"]["count"] == 6
        assert agg["sar.evaluations"]["value"] >= 1.0
        assert json.loads(json.dumps(out)) == out  # JSON-serializable


class TestSchemaValidation:
    def test_rejects_missing_header(self):
        with pytest.raises(TelemetrySchemaError, match="header"):
            validate_metrics([json.dumps({"type": "iteration"})])

    def test_rejects_stale_rank_columns(self):
        header = {"type": "header", "schema": "repro-metrics/1", "p": 4}
        it = {
            "type": "iteration", "iteration": 0, "p": 4, "t_iter": 0.1,
            "phase_time": {}, "particles_per_rank": [1, 1, 1, 1],
            "imbalance": 1.0, "comm": {}, "sar_decisions": [],
            "redistributed": False, "redistribution_cost": 0.0,
        }
        shrink = {"type": "event", "kind": "shrink", "iteration": 0, "t": 0.1, "p": 3}
        stale = dict(it, iteration=1, p=3)  # still 4 rank columns
        summary = {"type": "summary", "iterations": 2, "aggregates": {}}
        lines = [json.dumps(r) for r in (header, it, shrink, stale, summary)]
        with pytest.raises(TelemetrySchemaError, match="stale ranks"):
            validate_metrics(lines)

    def test_rejects_wrong_trace_schema(self):
        with pytest.raises(TelemetrySchemaError, match="schema"):
            validate_trace({"traceEvents": [], "otherData": {"schema": "nope"}})


# ----------------------------------------------------------------------
# SAR decision log replay
# ----------------------------------------------------------------------
class TestSARDecisionLog:
    def test_one_record_per_evaluation_replays_verdicts(self):
        sim = Simulation(_config(nparticles=4096, p=8))
        sim.enable_telemetry()
        result = sim.run(30)
        metrics = validate_metrics(sim.telemetry.lines())

        fired_iterations = []
        for rec in metrics.iterations:
            # the driver evaluates the policy once per iteration
            assert len(rec["sar_decisions"]) == 1
            d = rec["sar_decisions"][0]
            assert d["policy"] == "dynamic" and d["iteration"] == rec["iteration"]
            # replay Eq. 1 from the logged inputs
            if d["i0"] is None or d["i1"] is None or d["i1"] <= d["i0"]:
                expected = False
            else:
                rise = d["t1"] - d["t0"]
                expected = rise > 0.0 and rise * (d["i1"] - d["i0"]) >= d["threshold"]
            assert expected == d["fired"], f"iteration {rec['iteration']}"
            # the verdict is what the driver acted on
            assert rec["redistributed"] == d["fired"]
            if d["fired"]:
                fired_iterations.append(rec["iteration"])

        assert len(fired_iterations) == result.n_redistributions
        agg = sim.telemetry.aggregates()
        assert agg["sar.evaluations"]["value"] == 30.0
        assert agg["sar.fired"]["value"] == float(len(fired_iterations))

    def test_periodic_policy_records(self):
        sim = Simulation(_config(policy="periodic:3"))
        sim.enable_telemetry()
        sim.run(9)
        metrics = validate_metrics(sim.telemetry.lines())
        for rec in metrics.iterations:
            (d,) = rec["sar_decisions"]
            assert d["policy"] == "periodic" and d["period"] == 3
            assert d["fired"] == ((rec["iteration"] + 1) % 3 == 0)


# ----------------------------------------------------------------------
# satellite 2: consistency across rank-failure shrink
# ----------------------------------------------------------------------
class TestTelemetryAcrossRecovery:
    @pytest.mark.parametrize("engine", ["flat", "looped"])
    def test_rank_kill_keeps_streams_consistent(self, engine, tmp_path):
        sim = SIMULATIONS[engine](_config(p=6, seed=2))
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="kill", rank=3, iteration=4),))
        )
        sim.enable_telemetry()
        result = sim.run(10, checkpoint_every=3, checkpoint_path=tmp_path / "ck.npz")
        assert result.n_recoveries == 1 and sim.vm.p == 5

        # metrics: validator enforces the no-stale-rank-columns contract
        metrics = validate_metrics(sim.telemetry.save_metrics(tmp_path / "m.jsonl"))
        widths = [len(rec["particles_per_rank"]) for rec in metrics.iterations]
        assert set(widths) == {5, 6} and widths == sorted(widths, reverse=True)
        kinds = [ev["kind"] for ev in metrics.events]
        assert {"rank_failure", "shrink", "recovery"} <= set(kinds)
        assert kinds.index("rank_failure") < kinds.index("shrink") < kinds.index("recovery")

        # trace: spans never name a rank beyond the pre-shrink machine,
        # and post-shrink iterations never use the dead width
        trace = validate_trace(sim.telemetry.save_trace(tmp_path / "t.json"))
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert max(ev["tid"] for ev in spans) <= 5
        assert trace["otherData"]["rank_history"][-1][1] == 5

        # PhaseTrace survived the machine swap: its totals reassemble the
        # shrunk machine's cumulative phase breakdown exactly
        for phase, seconds in sim.vm.phase_breakdown().items():
            assert sim.trace.totals().get(phase, 0.0) == pytest.approx(
                seconds, abs=1e-12
            )

    def test_comm_stats_continuous_after_shrink(self, tmp_path):
        sim = Simulation(_config(p=6, seed=2))
        sim.install_faults(
            FaultPlan(events=(FaultEvent(kind="kill", rank=3, iteration=4),))
        )
        sim.enable_telemetry()
        sim.run(8, checkpoint_every=3, checkpoint_path=tmp_path / "ck.npz")
        metrics = validate_metrics(sim.telemetry.lines())
        # every iteration record carries scatter traffic — the comm
        # ledger kept flowing through the recovery swap
        for rec in metrics.iterations:
            assert rec["comm"]["scatter"]["msgs"] > 0


# ----------------------------------------------------------------------
# trace rows across checkpoint / resume
# ----------------------------------------------------------------------
class TestTelemetryAcrossResume:
    def test_trace_rows_survive_resume(self, tmp_path):
        cfg = _config(seed=5)
        full = Simulation(cfg)
        full.run(12)

        part = Simulation(cfg)
        part.run(6)
        ck = part.checkpoint(tmp_path / "ck.npz")
        resumed = Simulation.from_checkpoint(ck)
        resumed.enable_telemetry()
        resumed.run(6)

        assert len(resumed.trace.rows) == len(full.trace.rows) == 12
        for phase, seconds in full.trace.totals().items():
            assert resumed.trace.totals()[phase] == pytest.approx(seconds, abs=1e-12)
        # telemetry itself only covers the resumed tail
        assert resumed.telemetry.enabled_iterations == 6

    def test_checkpoint_event_recorded(self, tmp_path):
        sim = Simulation(_config())
        sim.enable_telemetry()
        sim.run(6, checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz")
        metrics = validate_metrics(sim.telemetry.lines())
        checkpoints = [ev for ev in metrics.events if ev["kind"] == "checkpoint"]
        assert len(checkpoints) == 3
        assert all(ev["path"].endswith("ck.npz") for ev in checkpoints)


# ----------------------------------------------------------------------
# guard violations feed the registry
# ----------------------------------------------------------------------
class TestGuardTelemetry:
    def test_violation_counted(self):
        sim = Simulation(_config(guards="warn"))
        sim.enable_telemetry()
        sim.run(2)
        # force a conservation violation and step once more
        sim.guard.expected_count = sim.guard.expected_count + 1
        with pytest.warns(UserWarning, match="invariant violation"):
            sim.run(1)
        agg = sim.telemetry.aggregates()
        assert agg["guard.violations"]["value"] >= 1.0
        metrics = validate_metrics(sim.telemetry.lines())
        assert any(ev["kind"] == "guard_violation" for ev in metrics.events)


# ----------------------------------------------------------------------
# report rendering + CLI
# ----------------------------------------------------------------------
class TestReport:
    def _run_files(self, tmp_path, tag, **kw):
        sim = Simulation(_config(**kw))
        sim.enable_telemetry()
        sim.run(8)
        return (
            sim.telemetry.save_metrics(tmp_path / f"{tag}.jsonl"),
            sim.telemetry.save_trace(tmp_path / f"{tag}.trace.json"),
        )

    def test_single_run_report(self, tmp_path):
        metrics_path, trace_path = self._run_files(tmp_path, "a")
        text = report_from_files([metrics_path], trace_path=trace_path)
        assert "telemetry report" in text
        assert "phase profile" in text and "load imbalance" in text
        assert "redistribution decisions" in text
        assert "rank lanes" in text  # trace cross-check line

    def test_comparison_report(self, tmp_path):
        a, _ = self._run_files(tmp_path, "dynamic", policy="dynamic")
        b, _ = self._run_files(tmp_path, "periodic", policy="periodic:5")
        text = report_from_files([a, b])
        assert "side-by-side comparison" in text
        assert "dynamic.jsonl" in text and "periodic.jsonl" in text

    def test_render_comparison_direct(self, tmp_path):
        path, _ = self._run_files(tmp_path, "x")
        metrics = validate_metrics(path)
        text = render_comparison([("left", metrics), ("right", metrics)])
        assert "total_time" in text and "left" in text and "right" in text


class TestCLI:
    def test_run_with_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "5",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        validate_trace(trace)
        validate_metrics(metrics)

    def test_report_command(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "5", "--metrics", str(metrics),
        ])
        capsys.readouterr()
        assert main(["report", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out

    def test_report_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "header", "schema": "wrong"}\n')
        with pytest.raises(SystemExit, match="bad telemetry file"):
            main(["report", str(bad)])

    def test_resume_with_metrics(self, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "4", "--checkpoint-every", "4",
            "--checkpoint-path", str(ck),
        ])
        metrics = tmp_path / "m.jsonl"
        code = main([
            "resume", str(ck), "--iterations", "3", "--metrics", str(metrics),
        ])
        assert code == 0
        parsed = validate_metrics(metrics)
        assert len(parsed.iterations) == 3
