"""One telemetry stream: the JSONL writer and reader of runs and batches.

A stream is a ``header`` record, an ordered body of ``records`` and one
closing ``summary`` carrying the stream's ``aggregates()`` — a run's
fold of its records, a batch's registry snapshot — written one JSON
object per line.  :class:`EventStream` is the writer behind both
:class:`~repro.telemetry.RunTelemetry` (``repro-metrics/1``) and
:class:`~repro.service.telemetry.ServiceTelemetry` (``repro-service/2``);
:func:`read_jsonl` is the reader behind both validators, ``repro top``
and ``repro jobs --stream`` (DESIGN.md §5.4).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.util.atomic_io import atomic_write_text
from repro.util.errors import TelemetrySchemaError

__all__ = ["EventStream", "read_jsonl"]


class EventStream:
    """Header fields and ordered body records, written as JSONL.

    ``header_fields`` keep their order; a field whose value is ``None`` is
    left out of the written header, so optional stamps (config,
    correlation, batch id) appear only once set.
    """

    def __init__(self, schema: str, **header_fields) -> None:
        self.schema = schema
        self.header_fields = header_fields
        #: the stream body, in occurrence order
        self.records: list[dict] = []
        self._live = None

    def header(self) -> dict:
        """The first record of the stream."""
        fields = {k: v for k, v in self.header_fields.items() if v is not None}
        return {"type": "header", "schema": self.schema, **fields}

    def aggregates(self) -> dict:
        """The summary's ``{instrument: {"kind", "value"}}`` block (per subclass)."""
        raise NotImplementedError

    def summary(self) -> dict:
        """The closing record of the stream."""
        return {"type": "summary", "aggregates": self.aggregates()}

    def append(self, record: dict) -> dict:
        """Add ``record`` to the body (and to the live file, if any); return it."""
        self.records.append(record)
        self._emit(record)
        return record

    def lines(self) -> list[str]:
        """The whole stream as serialized lines."""
        return [json.dumps(rec) for rec in (self.header(), *self.records, self.summary())]

    def save(self, path: str | Path) -> Path:
        """Atomically write the stream to ``path``: a reader never sees a torn file."""
        return atomic_write_text(Path(path), "\n".join(self.lines()) + "\n")

    def stream_to(self, path: str | Path) -> Path:
        """Also append the stream live to ``path``, one flushed line per record.

        :meth:`close_stream` then rewrites the file atomically with the
        summary, so a crash mid-batch leaves a summaryless stream whose
        every complete line is a record.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._live = path.open("w", encoding="utf-8")
        self._emit(self.header())
        return path

    def _emit(self, record: dict) -> None:
        if self._live is not None:
            self._live.write(json.dumps(record) + "\n")
            self._live.flush()

    def close_stream(self) -> Path | None:
        """Finish the live file with a closing :meth:`save` (idempotent)."""
        if self._live is None:
            return None
        self._live.close()
        path, self._live = Path(self._live.name), None
        return self.save(path)


def read_jsonl(
    source: str | Path | list[str], *, offset: int = 0, partial: bool = False
) -> tuple[list[dict], int]:
    """Parse the records of ``source`` from byte ``offset``; return them and the new offset.

    ``source`` is a file path or a list of lines.  Every line must hold one
    JSON object (blank lines are skipped): a line that is not UTF-8, not
    JSON or not an object raises :class:`TelemetrySchemaError` naming
    ``file:line``.  Strict mode (finished files) parses an unterminated
    last line like any other; ``partial=True`` (a live stream) leaves it
    unconsumed, so the next call from the returned offset re-reads it once
    the writer has completed it.
    """
    if isinstance(source, list):
        where, blob = "<lines>", "".join(line + "\n" for line in source).encode()[offset:]
    else:
        where = str(source)
        with Path(source).open("rb") as fh:
            fh.seek(offset)
            blob = fh.read()
    lines = blob.split(b"\n")
    torn = lines.pop() if partial else b""
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
            if not text.strip():
                continue
            record = json.loads(text)
        except ValueError as exc:
            raise TelemetrySchemaError(f"{where}:{lineno} is not valid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise TelemetrySchemaError(f"{where}:{lineno} is not a JSON object")
        records.append(record)
    return records, offset + len(blob) - len(torn)
