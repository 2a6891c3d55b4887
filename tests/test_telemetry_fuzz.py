"""Malformed telemetry ends in ``TelemetrySchemaError`` or a valid parse, never a traceback.

Fuzzes three real artifacts — a run's metrics stream (with checkpoints, a
rank kill and its shrink), a batch's live service stream, and the run's
Chrome trace — by truncating them, flipping bytes, replacing one record
with a non-object and deleting one required key.  A valid parse must also
be usable: the report renders it, the ``repro top`` fold folds it.  The
partial (live-stream) reader must return a clean prefix of a truncated
stream.  At the command line the same faults print one line and exit 1.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.machine import FaultEvent, FaultPlan
from repro.obs import BatchView, render_top
from repro.pic import Simulation, SimulationConfig
from repro.service import JobSpec, Scheduler
from repro.telemetry import (
    TelemetrySchemaError,
    read_jsonl,
    report_from_files,
    validate_service,
    validate_trace,
)

#: a spec of what each stream's records must carry, independent of the validators
_REQUIRED = {
    "metrics": {
        "header": ("type", "schema", "p"),
        "iteration": (
            "type", "iteration", "p", "t_iter", "phase_time", "particles_per_rank",
            "imbalance", "comm", "sar_decisions", "redistributed", "redistribution_cost",
        ),
        "event": ("type", "kind"),
        "shrink": ("type", "kind", "p"),
        "summary": ("type", "aggregates"),
    },
    "service": {
        "header": ("type", "schema", "jobs", "workers", "batch_id", "started_at"),
        "event": ("type", "kind", "t"),
        "job": ("type", "kind", "t", "job", "job_id", "attempt"),
        "summary": ("type", "aggregates"),
    },
}
_TRACE_REQUIRED = {
    "X": ("name", "ph", "pid", "tid", "ts", "dur"),
    "i": ("name", "ph", "ts"),
    "C": ("name", "ph", "ts"),
}
_NON_OBJECTS = ("3", "[1]", '"event"', "null", "true", "1.5")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The three artifacts as bytes."""
    root = tmp_path_factory.mktemp("artifacts")
    sim = Simulation(SimulationConfig(
        nx=16, ny=8, nparticles=512, p=6, distribution="irregular", policy="periodic:3", seed=2,
    ))
    sim.install_faults(FaultPlan(events=(FaultEvent(kind="kill", rank=3, iteration=4),)))
    sim.enable_telemetry()
    sim.run(8, checkpoint_every=3, checkpoint_path=root / "ck.npz")
    jobs = [JobSpec(config=dict(nx=16, ny=8, nparticles=256, p=4, seed=s), iterations=4, name=f"j{s}")
            for s in (0, 1)]
    Scheduler(workers=1, cache=None, workdir=root / "work", obs_dir=root / "obs").run(jobs)
    out = {
        "metrics": sim.telemetry.save_metrics(root / "m.jsonl").read_bytes(),
        "service": (root / "obs" / "service.jsonl").read_bytes(),
        "trace": sim.telemetry.save_trace(root / "t.json").read_bytes(),
    }
    kinds = [json.loads(line).get("kind") for line in out["metrics"].splitlines()]
    assert {"checkpoint", "shrink", "recovery"} <= set(kinds)
    return out


def _use(kind: str, path, artifacts, scratch) -> None:
    """Validate ``path`` as a ``kind`` artifact and use the parse as the CLI would."""
    if kind == "metrics":
        report_from_files([path])
    elif kind == "service":
        validate_service(path)
        view = BatchView()
        view.apply_all(read_jsonl(path)[0])
        render_top(view)
    else:
        metrics = scratch / "m.jsonl"
        metrics.write_bytes(artifacts["metrics"])
        report_from_files([metrics], trace_path=path)


def _ends_cleanly(kind: str, path, artifacts, scratch) -> None:
    try:
        _use(kind, path, artifacts, scratch)
    except TelemetrySchemaError:
        pass
    if kind != "trace":
        try:
            records, _ = read_jsonl(path, partial=True)
        except TelemetrySchemaError:
            return
        assert all(isinstance(rec, dict) for rec in records)


def _required_keys(kind: str, record: dict) -> tuple[str, ...]:
    table = _REQUIRED[kind]
    if record.get("kind") == "shrink":
        return table["shrink"]
    if kind == "service" and record.get("type") == "event" and "job" in record:
        return table["job"]
    return table[record["type"]]


def _mutate(kind: str, blob: bytes, data) -> bytes:
    """One structural mutation: a record replaced by a non-object, or a required key deleted."""
    non_object = data.draw(st.sampled_from(_NON_OBJECTS))
    delete = data.draw(st.booleans())
    if kind == "trace":
        doc = json.loads(blob)
        events = doc["traceEvents"]
        j = data.draw(st.integers(0, len(events) - 1))
        if not delete:
            events[j] = json.loads(non_object)
        elif events[j]["ph"] == "M":
            del doc["otherData"]["schema"]
        else:
            del events[j][data.draw(st.sampled_from(_TRACE_REQUIRED[events[j]["ph"]]))]
        return json.dumps(doc).encode()
    lines = blob.decode().splitlines()
    j = data.draw(st.integers(0, len(lines) - 1))
    if delete:
        record = json.loads(lines[j])
        del record[data.draw(st.sampled_from(_required_keys(kind, record)))]
        lines[j] = json.dumps(record)
    else:
        lines[j] = non_object
    return ("\n".join(lines) + "\n").encode()


class TestFuzzedTelemetry:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["metrics", "service", "trace"]), data=st.data())
    def test_truncated_or_flipped_ends_cleanly(self, artifacts, tmp_path_factory, kind, data):
        scratch = tmp_path_factory.mktemp("fuzz")
        blob = bytearray(artifacts[kind])
        if data.draw(st.booleans()):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
        else:
            for _ in range(data.draw(st.integers(1, 3))):
                blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        path = scratch / f"fuzzed.{kind}"
        path.write_bytes(bytes(blob))
        try:
            _ends_cleanly(kind, path, artifacts, scratch)
        finally:
            shutil.rmtree(scratch)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["metrics", "service", "trace"]), data=st.data())
    def test_non_object_or_missing_key_is_a_schema_error(self, artifacts, tmp_path_factory, kind, data):
        scratch = tmp_path_factory.mktemp("fuzz")
        path = scratch / f"mutated.{kind}"
        path.write_bytes(_mutate(kind, artifacts[kind], data))
        try:
            with pytest.raises(TelemetrySchemaError):
                if kind == "trace":
                    validate_trace(path)
                else:
                    _use(kind, path, artifacts, scratch)
        finally:
            shutil.rmtree(scratch)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["metrics", "service"]), data=st.data())
    def test_partial_reader_returns_a_clean_prefix(self, artifacts, tmp_path_factory, kind, data):
        blob = artifacts[kind]
        cut = data.draw(st.integers(0, len(blob)))
        scratch = tmp_path_factory.mktemp("fuzz")
        path = scratch / "live.jsonl"
        path.write_bytes(blob[:cut])
        try:
            records, offset = read_jsonl(path, partial=True)
        finally:
            shutil.rmtree(scratch)
        complete = blob[:cut].split(b"\n")[:-1]
        assert records == [json.loads(line) for line in complete]
        assert offset == sum(len(line) + 1 for line in complete)
        # the rest of the stream resumes exactly where the prefix stopped
        rest, _ = read_jsonl([line.decode() for line in blob[offset:].splitlines()])
        assert records + rest == [json.loads(line) for line in blob.splitlines()]


class TestCommandLine:
    """Each fault is one ``SystemExit`` line (exit status 1), not a traceback."""

    def _metrics(self, artifacts, tmp_path, edit):
        lines = artifacts["metrics"].decode().splitlines()
        path = tmp_path / "m.jsonl"
        path.write_bytes("\n".join(edit(lines)).encode() + b"\n")
        return path

    def _exit_line(self, argv) -> str:
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize("bad", ["3", "[1]"])
    def test_report_on_a_non_object_line(self, artifacts, tmp_path, bad):
        path = self._metrics(artifacts, tmp_path, lambda ls: [ls[0], bad, *ls[1:]])
        assert self._exit_line(["report", str(path)]) == (
            f"bad telemetry file: {path}:2 is not a JSON object"
        )

    def test_report_on_bad_utf8(self, artifacts, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(artifacts["metrics"].replace(b'"iteration"', b'"iter\xffation"', 1))
        assert "is not valid JSON" in self._exit_line(["report", str(path)])

    def test_report_on_a_shrink_without_p(self, artifacts, tmp_path):
        def drop_p(lines):
            out = []
            for line in lines:
                rec = json.loads(line)
                if rec.get("kind") == "shrink":
                    del rec["p"]
                out.append(json.dumps(rec))
            return out

        path = self._metrics(artifacts, tmp_path, drop_p)
        assert "shrink event needs 'p'" in self._exit_line(["report", str(path)])

    def test_top_jobs_and_batch_on_a_non_object_record(self, artifacts, tmp_path):
        obs = tmp_path / "obs"
        obs.mkdir()
        lines = artifacts["service"].decode().splitlines()
        stream = obs / "service.jsonl"
        stream.write_text("\n".join([lines[0], "[1]", *lines[1:]]) + "\n")
        expected = f"{stream}:2 is not a JSON object"
        assert self._exit_line(["top", str(stream), "--once"]) == f"bad service stream: {expected}"
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"schema": "repro-batch/1", "jobs": [], "ok": True}))
        assert self._exit_line(["jobs", str(report), "--stream", str(stream)]) == (
            f"bad service stream: {expected}"
        )
        assert self._exit_line(["report", "--batch", str(obs)]) == f"bad batch directory: {expected}"
