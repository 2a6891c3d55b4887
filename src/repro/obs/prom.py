"""Prometheus textfile-collector snapshots of an aggregates block.

The node_exporter *textfile collector* scrapes ``*.prom`` files from a
directory; anything that can atomically write a file in the exposition
format is a Prometheus exporter with zero new dependencies.  This module
renders an ``{name: {"kind", "value"}}`` aggregates block — a batch's
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` or a run's
:meth:`~repro.telemetry.RunTelemetry.aggregates` fold — into that
format:

- counters  -> ``# TYPE name counter`` + one sample
- gauges    -> ``# TYPE name gauge`` + one sample
- histograms (a run's count / sum / min / max / mean summaries) ->
  ``name_count``, ``name_sum`` (both counters) and
  ``name_min``/``name_max``/``name_mean`` gauges

Instrument names use dots (``comm.scatter.bytes``); Prometheus metric
names cannot, so every non-``[a-zA-Z0-9_:]`` character maps to ``_`` and
a configurable prefix (default ``repro_``) namespaces the fleet.  Labels
(e.g. ``batch``) are attached to every sample.  Writes go through
:func:`~repro.util.atomic_io.atomic_write_text`, so a scraper never sees
a torn file.

:func:`parse_prom_text` is a minimal exposition-format reader used by
the tests and the CI smoke job to prove the output parses.
"""

from __future__ import annotations

from pathlib import Path

from repro.util.atomic_io import atomic_write_text

__all__ = [
    "render_prom_text",
    "write_prom_snapshot",
    "parse_prom_text",
]


def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(c if (c.isalnum() or c in "_:") else "_" for c in name)
    if safe and safe[0].isdigit():
        safe = "_" + safe
    return prefix + safe


def _label_text(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prom_text(snapshot: dict, *, prefix: str = "repro_", labels: dict | None = None) -> str:
    """Exposition-format text for an aggregates block.

    ``snapshot`` is ``{name: {"kind": "counter"|"gauge"|"histogram",
    "value": ...}}``, as ``MetricsRegistry.snapshot()`` and
    ``RunTelemetry.aggregates()`` return it.
    """
    label_text = _label_text(labels)
    lines: list[str] = []

    def emit(name: str, kind: str, value: float) -> None:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name}{label_text} {_format_value(value)}")

    for name in sorted(snapshot):
        entry = snapshot[name]
        kind, value = entry["kind"], entry["value"]
        base = _prom_name(name, prefix)
        if kind == "counter":
            emit(base, "counter", value)
        elif kind == "gauge":
            if value is not None:  # never-set gauges have no sample to expose
                emit(base, "gauge", value)
        elif kind == "histogram":
            emit(base + "_count", "counter", value["count"])
            emit(base + "_sum", "counter", value["sum"])
            for stat in ("min", "max", "mean"):
                if value[stat] is not None:
                    emit(base + "_" + stat, "gauge", value[stat])
        else:  # pragma: no cover - the instrument kinds are closed
            raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prom_snapshot(
    directory,
    snapshot: dict,
    *,
    name: str = "repro.prom",
    prefix: str = "repro_",
    labels: dict | None = None,
) -> Path:
    """Atomically write ``<directory>/<name>`` from an aggregates block.

    Creates the directory if missing and returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    atomic_write_text(path, render_prom_text(snapshot, prefix=prefix, labels=labels))
    return path


def parse_prom_text(text: str) -> dict[str, dict]:
    """Parse exposition text back to ``{name: {"kind", "samples"}}``.

    Minimal reader for tests/CI: understands ``# TYPE`` lines, optional
    ``{label="..."}`` blocks, and float values.  Raises ``ValueError``
    on anything malformed — which is the point: CI feeds the writer's
    output through this to prove a scraper would accept it.
    """
    out: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                out.setdefault(parts[2], {"kind": parts[3], "samples": {}})
            elif parts[1:2] == ["HELP"]:
                continue
            else:
                raise ValueError(f"line {lineno}: malformed comment {raw!r}")
            continue
        body, _, value_text = line.rpartition(" ")
        if not body:
            raise ValueError(f"line {lineno}: no value in {raw!r}")
        name, labels = _split_labels(body, lineno)
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value_text!r}") from None
        if name not in out:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE line")
        out[name]["samples"][labels] = value
    return out


def _split_labels(body: str, lineno: int) -> tuple[str, tuple]:
    if "{" not in body:
        if not body.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {body!r}")
        return body, ()
    name, _, rest = body.partition("{")
    if not rest.endswith("}"):
        raise ValueError(f"line {lineno}: unterminated label block in {body!r}")
    inner = rest[:-1]
    labels = []
    for item in filter(None, inner.split(",")):
        key, eq, val = item.partition("=")
        if eq != "=" or not (val.startswith('"') and val.endswith('"')):
            raise ValueError(f"line {lineno}: bad label {item!r}")
        labels.append((key, val[1:-1]))
    return name, tuple(sorted(labels))
