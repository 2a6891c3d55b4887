"""Schema validation for exported telemetry files.

Three artifact kinds leave a run or a batch:

* **trace** — Chrome Trace Event JSON (``repro run --trace``), loadable
  by Perfetto; validated by :func:`validate_trace`;
* **metrics** — JSONL, one record per line (``repro run --metrics``),
  schema ``repro-metrics/1``; validated by :func:`validate_metrics`;
* **service** — the job scheduler's batch event stream (``repro submit
  --metrics`` / ``--obs-dir``), schema ``repro-service/2``; validated by
  :func:`validate_service`.

The two JSONL streams share one reader
(:func:`~repro.telemetry.stream.read_jsonl`) and one envelope check —
a header naming a known schema, records of the types that schema
declares carrying their required keys (the :data:`_RECORDS` table), and
exactly one closing summary.  Every validator raises
:class:`TelemetrySchemaError` (a ``ReproError`` and a ``ValueError``)
naming the first offending record, and returns the parsed content so
callers (the report CLI, the CI ``telemetry`` job, the tests) never
parse twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.collector import METRICS_SCHEMA
from repro.telemetry.spans import TRACE_SCHEMA
from repro.telemetry.stream import read_jsonl
from repro.util.errors import TelemetrySchemaError

__all__ = [
    "TelemetrySchemaError",
    "validate_trace",
    "validate_metrics",
    "validate_service",
    "ParsedMetrics",
    "ParsedService",
]

#: Chrome-trace phase codes the exporter emits.
_TRACE_PHASES = ("X", "i", "C", "M")


def _fail(message: str) -> None:
    raise TelemetrySchemaError(message)


def validate_trace(source: str | Path | dict) -> dict:
    """Validate a Chrome-trace export; return the parsed document.

    ``source`` is a file path or an already-parsed dict.  Checks the
    envelope (``traceEvents`` list, schema marker) and every event's
    required fields per its phase code — the structural subset Perfetto
    requires to load the file.
    """
    if isinstance(source, dict):
        doc = source
    else:
        path = Path(source)
        try:
            doc = json.loads(path.read_bytes().decode("utf-8"))
        except ValueError as exc:
            _fail(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        _fail("trace must be an object with a 'traceEvents' list")
    other = doc.get("otherData")
    schema = other.get("schema") if isinstance(other, dict) else None
    if schema != TRACE_SCHEMA:
        _fail(f"trace otherData.schema is {schema!r}, expected {TRACE_SCHEMA!r}")
    for i, ev in enumerate(doc["traceEvents"]):
        if not isinstance(ev, dict):
            _fail(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _TRACE_PHASES:
            _fail(f"traceEvents[{i}] has unknown phase code {ph!r}")
        for key in ("name", "pid", "tid"):
            if key not in ev:
                _fail(f"traceEvents[{i}] ({ph}) is missing {key!r}")
        if ph in ("X", "i", "C") and not isinstance(ev.get("ts"), (int, float)):
            _fail(f"traceEvents[{i}] ({ph}) needs a numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                _fail(f"traceEvents[{i}] (X) needs a non-negative numeric 'dur'")
            args = ev.get("args", {})
            if not isinstance(args, dict) or "iteration" not in args:
                _fail(f"traceEvents[{i}] (X) args must carry the iteration tag")
        if ph == "C" and not isinstance(ev.get("args"), dict):
            _fail(f"traceEvents[{i}] (C) needs an 'args' object of series values")
    return doc


# ----------------------------------------------------------------------
# the JSONL streams: one envelope check over one per-schema table
# ----------------------------------------------------------------------
_NUM = (int, float)

#: schema -> record type -> required key -> accepted type(s)
_RECORDS: dict[str, dict[str, dict]] = {
    METRICS_SCHEMA: {
        "header": {"p": int},
        "iteration": {
            "iteration": int,
            "p": int,
            "t_iter": _NUM,
            "phase_time": dict,
            "particles_per_rank": list,
            "imbalance": _NUM,
            "comm": dict,
            "sar_decisions": list,
            "redistributed": bool,
            "redistribution_cost": _NUM,
        },
        "event": {"kind": str},
        "summary": {"aggregates": dict},
    },
    # the batch stream (:data:`repro.service.telemetry.SERVICE_SCHEMA`)
    "repro-service/2": {
        "header": {"jobs": int, "workers": int, "batch_id": str, "started_at": _NUM},
        "event": {"kind": str, "t": _NUM},
        "summary": {"aggregates": dict},
    },
}

#: one policy decision record (DESIGN.md §5.6 replayability contract)
_DECISION_KEYS = {"policy": str, "iteration": int, "fired": bool}


def _require(record: dict, keys: dict, what: str) -> None:
    for key, kind in keys.items():
        if not isinstance(record.get(key), kind):
            _fail(f"{what} needs {key!r} of type {getattr(kind, '__name__', 'number')}")


def _envelope(source, schemas: tuple[str, ...]) -> tuple[str, dict, list[dict], dict]:
    """Read a finished JSONL stream and check its envelope.

    Returns ``(where, header, body, summary)``: the header names one of
    ``schemas``, every body record has a type that schema declares and
    that type's required keys, and exactly one summary closes the stream.
    """
    records, _ = read_jsonl(source)
    where = "<lines>" if isinstance(source, list) else str(source)
    if not records:
        _fail(f"{where} is empty")
    header = records[0]
    if header.get("type") != "header" or header.get("schema") not in schemas:
        _fail(
            f"{where}: first record must be a header with schema in "
            f"{list(schemas)}, got {header.get('schema')!r}"
        )
    table = _RECORDS[header["schema"]]
    _require(header, table["header"], f"{where}: header")
    body: list[dict] = []
    summary: dict | None = None
    for i, rec in enumerate(records[1:], start=2):
        kind = rec.get("type")
        if kind == "header" or not isinstance(kind, str) or kind not in table:
            _fail(f"{where}: record {i} has unexpected type {kind!r}")
        if summary is not None:
            _fail(f"{where}: record {i} follows the summary record")
        _require(rec, table[kind], f"{where}: {kind} record {i}")
        if kind == "summary":
            summary = rec
        else:
            body.append(rec)
    if summary is None:
        _fail(f"{where}: no closing summary record (incomplete stream?)")
    return where, header, body, summary


@dataclass
class ParsedMetrics:
    """Structured view of a validated metrics JSONL stream."""

    header: dict
    iterations: list[dict]
    events: list[dict]
    summary: dict

    @property
    def p(self) -> int:
        """Rank count at the start of the run."""
        return int(self.header["p"])


def validate_metrics(source: str | Path | list[str]) -> ParsedMetrics:
    """Validate a metrics JSONL stream; return a :class:`ParsedMetrics`.

    ``source`` is a file path or a list of JSONL lines.  Beyond the
    envelope, checks the per-rank array length against the live rank
    count (which ``shrink`` events may lower mid-stream — stale rank
    columns are an error), the comm tallies and every decision record.
    """
    where, header, body, summary = _envelope(source, (METRICS_SCHEMA,))
    live_p = header["p"]
    if live_p < 1:
        _fail(f"{where}: header 'p' must be a positive integer")
    iterations: list[dict] = []
    events: list[dict] = []
    for rec in body:
        if rec["type"] == "event":
            if rec["kind"] == "shrink":
                _require(rec, {"p": int}, f"{where}: shrink event")
                live_p = rec["p"]
            events.append(rec)
            continue
        it = rec["iteration"]
        if rec["p"] != live_p:
            _fail(f"{where}: iteration {it} reports p={rec['p']}, the live rank count is {live_p}")
        if len(rec["particles_per_rank"]) != live_p:
            _fail(
                f"{where}: iteration {it} has {len(rec['particles_per_rank'])} rank "
                f"columns, expected {live_p} (stale ranks?)"
            )
        for phase, tallies in rec["comm"].items():
            _require(tallies if isinstance(tallies, dict) else {}, {"msgs": _NUM, "bytes": _NUM},
                     f"{where}: iteration {it} comm[{phase!r}]")
        if not all(isinstance(dt, _NUM) for dt in rec["phase_time"].values()):
            _fail(f"{where}: iteration {it} phase_time values must be numbers")
        for j, dec in enumerate(rec["sar_decisions"]):
            ctx = f"{where}: iteration {it} decision {j}"
            _require(dec if isinstance(dec, dict) else {}, _DECISION_KEYS, ctx)
            if not dec["policy"]:
                _fail(f"{ctx} needs a non-empty 'policy' name")
        iterations.append(rec)
    return ParsedMetrics(header, iterations, events, summary)


#: Event kinds scoped to one job — these must carry the
#: correlation identity (``job_id`` + ``attempt``) next to ``job``.
_JOB_EVENT_KINDS = frozenset({
    "job_launched", "job_progress", "job_done", "job_retry", "job_failed",
    "job_timeout", "heartbeat_lost", "worker_lost", "job_cancelled",
})


@dataclass
class ParsedService:
    """Structured view of a validated service (batch) JSONL stream."""

    header: dict
    events: list[dict]
    summary: dict

    @property
    def schema(self) -> str:
        return str(self.header["schema"])

    @property
    def batch_id(self) -> str:
        """The batch identity."""
        return self.header["batch_id"]

    def job_events(self) -> list[dict]:
        """The job-scoped subset of :attr:`events`, in stream order."""
        return [ev for ev in self.events if ev["kind"] in _JOB_EVENT_KINDS]


def validate_service(source: str | Path | list[str]) -> ParsedService:
    """Validate a service batch stream; return a :class:`ParsedService`.

    ``source`` is a file path or a list of JSONL lines.  Beyond the
    envelope (``repro-service/2``), checks the monotonic non-negative
    event timestamps (the §5.8 contract), a non-empty ``batch_id`` and
    the ``job_id``/``attempt`` correlation stamp on every job-scoped
    event.  A live stream being tailed
    mid-batch has no summary yet and is therefore *invalid* by design:
    completeness is part of the contract.
    """
    where, header, events, summary = _envelope(source, ("repro-service/2",))
    for key in ("jobs", "workers"):
        if header[key] < 0:
            _fail(f"{where}: header {key!r} must be a non-negative integer")
    if not header["batch_id"]:
        _fail(f"{where}: header needs a non-empty 'batch_id'")
    last_t = 0.0
    for i, rec in enumerate(events, start=2):
        name, t = rec["kind"], rec["t"]
        if not name or t < 0:
            _fail(f"{where}: event record {i} needs a 'kind' name and a non-negative 't'")
        if t < last_t:
            _fail(
                f"{where}: event record {i} has t={t} before the previous "
                f"event's t={last_t} (timestamps must be monotonic)"
            )
        last_t = float(t)
        if name in _JOB_EVENT_KINDS:
            keys = {"job": str, "job_id": str, "attempt": int}
            _require(rec, keys, f"{where}: {name} record {i}")
            if not rec["job_id"] or rec["attempt"] < 0:
                _fail(f"{where}: {name} record {i} needs a 'job_id', an 'attempt' >= 0")
    return ParsedService(header, events, summary)
