"""Tests for the fleet-observability layer (repro.obs, DESIGN.md §5.8).

Pins the observability contract:

* **correlation** — every artifact a batch produces (service stream,
  per-job metrics/trace files, result payloads) carries the same
  ``{batch_id, job_id, attempt}`` stamp and joins with zero orphans,
  across retries and cache hits (the 6-job contract test);
* **zero-cost when off** — profiling + telemetry off ⇒ results, virtual
  clocks and op counts are bit-identical to the plain run;
* **export** — Prometheus snapshots render, parse, and round-trip;
* **live view** — the stream reader tolerates torn lines and the
  ``repro top`` fold/render reflects the wire truth;
* **schema** — ``validate_service`` accepts both stream generations and
  rejects malformed streams.
"""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from repro.obs import (
    BatchView,
    PhaseProfiler,
    aggregate_batch,
    parse_prom_text,
    render_batch_rollup,
    render_prom_text,
    render_top,
    top_loop,
    write_prom_snapshot,
)
from repro.machine import MachineModel, VirtualMachine
from repro.pic import Simulation
from repro.pic.simulation import config_from_dict
from repro.service import (
    JobSpec,
    Scheduler,
    derive_batch_id,
    job_artifact_stem,
    render_report,
)
from repro.telemetry import (
    TelemetrySchemaError,
    validate_metrics,
    validate_service,
)
from repro.telemetry.spans import SpanTracer
from repro.telemetry.stream import read_jsonl

BASE = dict(nx=16, ny=8, nparticles=256, p=4)


def _config(**kw):
    return config_from_dict(dict(BASE, seed=3, **kw))


# ----------------------------------------------------------------------
# profiler unit tests: the profile is a fold of the phase recorder's rows
# ----------------------------------------------------------------------
def _profiled_vm(p=2):
    vm = VirtualMachine(p, MachineModel.cm5())
    prof = PhaseProfiler()
    vm.tracer = prof.tracer
    return vm, prof


def _stacks(prof):
    return {stack: int(us) for stack, us in (ln.rsplit(" ", 1) for ln in prof.folded_lines())}


class TestPhaseProfiler:
    def test_sections_nest_and_fold_with_self_time(self):
        vm, prof = _profiled_vm()
        with vm.phase("scatter"):
            with vm.section("deposit"):
                time.sleep(0.002)
            with vm.section("reduce"):
                pass
            time.sleep(0.001)

        stacks = _stacks(prof)
        assert "scatter;deposit" in stacks
        assert "scatter;reduce" in stacks
        assert "scatter" in stacks  # parent self-time survives as its own frame
        assert all(v >= 0 for v in stacks.values())
        assert stacks["scatter;deposit"] >= 1000  # slept 2ms -> >=1000 us

    def test_vm_section_without_profiler_is_a_passthrough(self):
        vm = VirtualMachine(2, MachineModel.cm5())
        assert vm.tracer is None
        with vm.section("anything"):
            x = 1
        assert x == 1
        vm.tracer = tracer = SpanTracer()
        tracer.virtual = True  # telemetry's columns only: no section rows
        with vm.phase("scatter"), vm.section("deposit"):
            pass
        assert [row[0] for row in tracer.rows] == ["scatter"]
        prof = PhaseProfiler(tracer)
        with vm.phase("scatter"), vm.section("deposit"):
            pass
        assert prof.samples[("scatter", "deposit")][0] == 1
        assert prof.samples[("scatter",)][0] == 1  # the row before enabling is not folded

    def test_a_phase_run_inside_a_section_nests_under_it(self):
        vm, prof = _profiled_vm()
        with vm.phase("scatter"), vm.section("ghost_merge"), vm.phase("recovery"):
            vm.charge_comm_seconds(0.5)
        assert sorted(prof.samples) == [
            ("scatter",), ("scatter", "ghost_merge"), ("scatter", "ghost_merge", "recovery")
        ]
        # the recorded phase depth is the phase stack's, as the trace shows it
        assert [(name, depth) for name, _, depth, *_ in prof.tracer.rows] == [
            ("recovery", 2), ("ghost_merge", 2), ("scatter", 1)
        ]

    def test_a_profiling_only_recorder_keeps_no_virtual_clocks(self):
        vm, prof = _profiled_vm(p=64)
        with vm.phase("field"):
            vm.charge_ops("field", 1.0)
        ((name, _, depth, t0, t1, h0, h1),) = prof.tracer.rows
        assert (name, depth, t0, t1) == ("field", 1, None, None)
        assert h1 >= h0
        assert prof.tracer.spans == []

    def test_merge_worker_samples_lands_under_workers_root(self):
        vm, prof = _profiled_vm()
        with vm.phase("field"):
            pass
        prof.merge_worker_samples({"scatter": [3, 0.25]})
        stacks = _stacks(prof)
        assert "workers;scatter" in stacks
        assert stacks["workers;scatter"] == 250000  # 0.25 s in us

    def test_export_folded_writes_per_root_and_combined(self, tmp_path):
        vm, prof = _profiled_vm()
        with vm.phase("scatter"):
            with vm.section("deposit"):
                pass
        with vm.phase("gather"):
            pass
        paths = prof.export_folded(tmp_path)
        names = {p.name for p in paths}
        assert "profile.folded" in names
        assert "scatter.folded" in names and "gather.folded" in names
        combined = (tmp_path / "profile.folded").read_text()
        assert "scatter;deposit " in combined
        assert (tmp_path / "gather.folded").read_text().startswith("gather ")


# ----------------------------------------------------------------------
# the zero-cost contract (profiling edition)
# ----------------------------------------------------------------------
class TestZeroCostWhenOff:
    def test_profiled_run_is_bit_identical(self):
        plain = Simulation(_config())
        r_plain = plain.run(6)

        observed = Simulation(_config())
        observed.enable_telemetry()
        observed.enable_profiling()
        r_observed = observed.run(6)

        assert observed.vm.elapsed() == plain.vm.elapsed()
        assert observed.vm.ops.as_dict() == plain.vm.ops.as_dict()
        d_plain, d_observed = r_plain.to_dict(), r_observed.to_dict()
        d_observed.pop("telemetry", None)
        assert d_observed == d_plain
        # the profiler actually measured something
        assert observed.profiler is not None
        assert observed.profiler.samples

    def test_plain_run_imports_no_observation(self):
        """Observation that is off is not imported: a plain run loads
        nothing under ``repro.obs``, ``repro.telemetry`` or ``repro.service``.
        A fresh interpreter, because this suite imports them all."""
        code = (
            "import sys\n"
            "import repro.pic.simulation as s\n"
            "s.Simulation(s.SimulationConfig(nx=16, ny=8, nparticles=64, p=2)).run(1)\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] in (['repro', 'obs'], ['repro', 'telemetry'], ['repro', 'service'])))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_save_profile_emits_folded_files(self, tmp_path):
        sim = Simulation(_config())
        sim.enable_profiling()
        sim.run(4)
        paths = sim.save_profile(tmp_path)
        assert any(p.name == "profile.folded" for p in paths)
        text = (tmp_path / "profile.folded").read_text()
        assert "scatter;" in text  # kernel sections, not just phases


# ----------------------------------------------------------------------
# Prometheus export
# ----------------------------------------------------------------------
class TestProm:
    def _snapshot(self):
        wall = {"count": 2, "sum": 2.0, "min": 0.5, "max": 1.5, "mean": 1.0}
        return {
            "job.wall": {"kind": "histogram", "value": wall},
            "jobs.completed": {"kind": "counter", "value": 4.0},
            "queue.depth": {"kind": "gauge", "value": 2.0},
        }

    def test_render_parse_round_trip(self):
        text = render_prom_text(self._snapshot(), labels={"batch": "b1"})
        parsed = parse_prom_text(text)
        assert parsed["repro_jobs_completed"]["kind"] == "counter"
        key = (("batch", "b1"),)
        assert parsed["repro_jobs_completed"]["samples"][key] == 4.0
        assert parsed["repro_queue_depth"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_count"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_sum"]["samples"][key] == 2.0
        assert parsed["repro_job_wall_mean"]["samples"][key] == 1.0

    def test_never_set_gauge_and_empty_histogram_are_skipped(self):
        empty = {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": 0.0}
        text = render_prom_text({
            "c": {"kind": "counter", "value": 1.0},
            "g": {"kind": "gauge", "value": None},  # declared, never set
            "h": {"kind": "histogram", "value": empty},  # no observations
        })
        parsed = parse_prom_text(text)
        assert "repro_c" in parsed
        assert "repro_g" not in parsed
        assert parsed["repro_h_count"]["samples"][()] == 0.0
        assert "repro_h_min" not in parsed  # no min/max/mean without data

    def test_write_prom_snapshot_creates_dir_and_parses(self, tmp_path):
        path = write_prom_snapshot(tmp_path / "metrics", self._snapshot())
        assert path.name == "repro.prom"
        parse_prom_text(path.read_text())  # must not raise

    def test_parser_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prom_text("orphan_sample 1\n")
        with pytest.raises(ValueError):
            parse_prom_text("# TYPE x counter\nx notanumber\n")


# ----------------------------------------------------------------------
# stream schema validation
# ----------------------------------------------------------------------
def _stream_v2(batch_id="batch-abc", *, close=True):
    lines = [
        json.dumps(
            {
                "type": "header",
                "schema": "repro-service/2",
                "jobs": 1,
                "workers": 1,
                "batch_id": batch_id,
                "started_at": 1700000000.0,
            }
        ),
        json.dumps(
            {
                "type": "event",
                "kind": "job_launched",
                "t": 0.1,
                "job": "j0",
                "job_id": "k" * 64,
                "attempt": 0,
                "queue_depth": 0,
            }
        ),
        json.dumps(
            {
                "type": "event",
                "kind": "job_done",
                "t": 0.5,
                "job": "j0",
                "job_id": "k" * 64,
                "attempt": 0,
                "cached": False,
                "wall": 0.4,
            }
        ),
    ]
    if close:
        lines.append(json.dumps({"type": "summary", "aggregates": {}}))
    return lines


class TestValidateService:
    def test_accepts_v2(self):
        parsed = validate_service(_stream_v2())
        assert parsed.schema == "repro-service/2"
        assert parsed.batch_id == "batch-abc"
        assert len(parsed.job_events()) == 2

    def test_rejects_a_v1_header_naming_the_schema(self):
        lines = [
            json.dumps(
                {"type": "header", "schema": "repro-service/1", "jobs": 0, "workers": 1}
            ),
            json.dumps({"type": "summary", "aggregates": {}}),
        ]
        with pytest.raises(TelemetrySchemaError, match="'repro-service/1'"):
            validate_service(lines)

    def test_rejects_missing_summary(self):
        with pytest.raises(TelemetrySchemaError):
            validate_service(_stream_v2(close=False))

    def test_rejects_missing_batch_id_on_v2(self):
        lines = _stream_v2()
        head = json.loads(lines[0])
        del head["batch_id"]
        lines[0] = json.dumps(head)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)

    def test_rejects_non_monotonic_t(self):
        lines = _stream_v2()
        ev = json.loads(lines[2])
        ev["t"] = 0.01  # earlier than the previous event
        lines[2] = json.dumps(ev)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)

    def test_rejects_job_event_without_job_id_on_v2(self):
        lines = _stream_v2()
        ev = json.loads(lines[1])
        del ev["job_id"]
        lines[1] = json.dumps(ev)
        with pytest.raises(TelemetrySchemaError):
            validate_service(lines)


# ----------------------------------------------------------------------
# live view: reader, fold, render
# ----------------------------------------------------------------------
class TestTop:
    def test_read_stream_leaves_torn_line_for_next_round(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"type": "header", "jobs": 1}\n{"type": "ev')
        records, offset = read_jsonl(path, partial=True)
        assert [r["type"] for r in records] == ["header"]
        # writer completes the line -> the retry picks it up
        with path.open("ab") as fh:
            fh.write(b'ent", "kind": "job_launched", "t": 0.1, "job": "a"}\n')
        records, offset = read_jsonl(path, offset=offset, partial=True)
        assert [r["kind"] for r in records] == ["job_launched"]

    def test_batch_view_folds_lifecycle(self):
        view = BatchView()
        view.apply_all([json.loads(s) for s in _stream_v2()])
        assert view.finished
        assert view.batch_id == "batch-abc"
        row = view.jobs["j0"]
        assert row["state"] == "done"
        assert row["wall"] == 0.4
        assert view.cache_hits == 0

    def test_render_top_shows_progress_and_footer(self):
        view = BatchView()
        view.apply(
            {"type": "header", "schema": "repro-service/2", "jobs": 2,
             "workers": 2, "batch_id": "batch-x", "started_at": 0.0}
        )
        view.apply(
            {"type": "event", "kind": "job_progress", "t": 0.2, "job": "a",
             "job_id": "k" * 64, "attempt": 0, "iteration": 3, "total": 6,
             "imbalance": 1.25}
        )
        text = render_top(view)
        assert "batch-x" in text
        assert "3/6" in text
        assert "1.25" in text
        assert "batch complete" not in text
        view.apply({"type": "summary", "aggregates": {}})
        assert "batch complete" in render_top(view)

    def test_top_loop_once_on_finished_stream(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(_stream_v2()) + "\n")
        buf = io.StringIO()
        view = top_loop(path, once=True, out=buf)
        assert view.finished
        assert "batch complete" in buf.getvalue()

    def test_top_loop_once_missing_stream(self, tmp_path):
        buf = io.StringIO()
        view = top_loop(tmp_path / "nope.jsonl", once=True, out=buf)
        assert not view.finished
        assert "waiting" in buf.getvalue()


# ----------------------------------------------------------------------
# report module consolidation (satellite: analysis -> telemetry)
# ----------------------------------------------------------------------
class TestReportConsolidation:
    def test_analysis_reexports_are_the_same_objects(self):
        import repro.analysis as package
        from repro.telemetry import report as home

        assert package.format_table is home.format_table
        assert package.ascii_series is home.ascii_series

    def test_telemetry_package_exports(self):
        import repro.telemetry as t

        assert callable(t.format_table) and callable(t.ascii_series)


# ----------------------------------------------------------------------
# the 6-job correlation contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed_batch(tmp_path_factory):
    """6-job batch with one forced retry and one in-batch cache hit,
    full observability on.  Several tests assert against it."""
    root = tmp_path_factory.mktemp("obs")
    jobs = [
        JobSpec(config=dict(BASE, seed=0), iterations=6, name="j0"),
        JobSpec(config=dict(BASE, seed=1), iterations=6, name="j1"),
        JobSpec(config=dict(BASE, seed=2), iterations=6, name="j2"),
        JobSpec(config=dict(BASE, seed=3), iterations=6, name="j3"),
        # crash attempt 0 before iteration 3 -> forced retry, resumes a1
        JobSpec(
            config=dict(BASE, seed=4),
            iterations=6,
            name="j4-retry",
            chaos={"kind": "crash", "at_iteration": 3, "attempts": [0]},
        ),
        # duplicate of j0's config -> served from the in-batch cache
        JobSpec(config=dict(BASE, seed=0), iterations=6, name="j5-dup"),
    ]
    scheduler = Scheduler(
        workers=2,
        cache=root / "cache",
        workdir=root / "work",
        retries=2,
        heartbeat_timeout=5.0,
        checkpoint_every=2,
        obs_dir=root / "obs",
        prom_dir=root / "prom",
    )
    report = scheduler.run(jobs)
    return {"root": root, "jobs": jobs, "report": report, "scheduler": scheduler}


class TestCorrelationContract:
    def test_batch_completes_with_retry_and_cache_hit(self, observed_batch):
        report = observed_batch["report"]
        assert report["ok"], report["counters"]
        assert report["counters"]["completed"] == 6
        assert report["counters"]["retries"] >= 1
        assert report["counters"]["cache_hits"] >= 1

    def test_batch_id_is_content_derived(self, observed_batch):
        report = observed_batch["report"]
        assert report["batch_id"] == derive_batch_id(observed_batch["jobs"])
        assert report["batch_id"].startswith("batch-")

    def test_stream_validates_as_v2_with_correlation(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        assert parsed.schema == "repro-service/2"
        assert parsed.batch_id == observed_batch["report"]["batch_id"]
        for ev in parsed.job_events():
            assert ev["job_id"]
            assert ev["attempt"] >= 0

    def test_stream_header_has_absolute_start_and_monotonic_t(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        assert parsed.header["started_at"] > 1e9  # epoch seconds, not relative
        ts = [ev["t"] for ev in parsed.events]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_retry_job_reaches_attempt_one_on_the_wire(self, observed_batch):
        parsed = validate_service(observed_batch["root"] / "obs" / "service.jsonl")
        attempts = [
            ev["attempt"]
            for ev in parsed.job_events()
            if ev.get("job") == "j4-retry" and ev["kind"] == "job_launched"
        ]
        assert attempts == [0, 1]

    def test_every_metrics_artifact_joins(self, observed_batch):
        report = observed_batch["report"]
        obs = observed_batch["root"] / "obs"
        metrics = sorted(obs.glob("job-*.metrics.jsonl"))
        assert metrics  # executed jobs saved artifacts
        for path in metrics:
            parsed = validate_metrics(path)
            corr = parsed.header.get("correlation")
            assert corr is not None, path.name
            assert corr["batch_id"] == report["batch_id"]
            assert path.name.startswith(
                job_artifact_stem(corr["job_id"], corr["attempt"])
            )

    def test_retried_attempt_saved_artifacts(self, observed_batch):
        # attempt 0 was SIGKILLed before saving; attempt 1 must have saved
        report = observed_batch["report"]
        rec = next(j for j in report["jobs"] if j["name"] == "j4-retry")
        stem = job_artifact_stem(rec["key"], 1)
        obs = observed_batch["root"] / "obs"
        assert (obs / f"{stem}.metrics.jsonl").exists()
        assert (obs / f"{stem}.trace.json").exists()

    def test_result_payloads_carry_correlation(self, observed_batch):
        report = observed_batch["report"]
        for rec in observed_batch["scheduler"]._records:
            corr = rec.payload.get("correlation") if rec.payload else None
            assert corr is not None, rec.name
            assert corr["batch_id"] == report["batch_id"]
            assert corr["job_id"] == rec.key

    def test_aggregate_batch_joins_everything_no_orphans(self, observed_batch):
        rollup = aggregate_batch(observed_batch["root"] / "obs")
        assert rollup["schema"] == "repro-batch-rollup/1"
        assert rollup["batch_id"] == observed_batch["report"]["batch_id"]
        assert rollup["correlation"]["orphans"] == []
        assert rollup["correlation"]["joined"] == rollup["correlation"]["metrics_files"]
        assert rollup["counters"]["completed"] == 6
        assert rollup["counters"]["retries"] >= 1
        assert rollup["counters"]["cache_hits"] >= 1
        text = render_batch_rollup(rollup)
        assert "j4-retry" in text and "ORPHAN" not in text

    def test_aggregate_batch_flags_orphans(self, observed_batch, tmp_path):
        import shutil

        obs = tmp_path / "obs"
        shutil.copytree(observed_batch["root"] / "obs", obs)
        # forge a metrics file whose correlation points at another batch
        victim = sorted(obs.glob("job-*.metrics.jsonl"))[0]
        lines = victim.read_text().splitlines()
        head = json.loads(lines[0])
        head["correlation"]["batch_id"] = "batch-intruder00"
        lines[0] = json.dumps(head)
        victim.write_text("\n".join(lines) + "\n")
        rollup = aggregate_batch(obs)
        assert any(
            o["file"] == victim.name for o in rollup["correlation"]["orphans"]
        )
        assert "ORPHAN" in render_batch_rollup(rollup)

    def test_prom_snapshot_written_and_parses(self, observed_batch):
        path = observed_batch["root"] / "prom" / "repro-batch.prom"
        assert path.exists()
        parsed = parse_prom_text(path.read_text())
        key = (("batch", observed_batch["report"]["batch_id"]),)
        assert parsed["repro_jobs_completed"]["samples"][key] == 6.0
        assert parsed["repro_cache_hits"]["samples"][key] >= 1.0

    def test_render_report_sources_columns_from_stream(self, observed_batch):
        events, _ = read_jsonl(observed_batch["root"] / "obs" / "service.jsonl")
        text = render_report(observed_batch["report"], events=events)
        rows = {
            ln.split()[0]: ln for ln in text.splitlines() if ln.strip().startswith("j")
        }
        assert " yes " in rows["j5-dup"]  # cache column from job_done.cached
        assert " 2 " in rows["j4-retry"]  # attempts column from launch count

    def test_top_view_of_the_finished_batch(self, observed_batch):
        buf = io.StringIO()
        view = top_loop(
            observed_batch["root"] / "obs" / "service.jsonl", once=True, out=buf
        )
        assert view.finished
        assert view.cache_hits >= 1
        assert view.jobs["j4-retry"]["state"] == "done"
        assert "batch complete" in buf.getvalue()
