"""Metrics registry: named counters and gauges read while they change.

A :class:`MetricsRegistry` is the job service's live tally: the
scheduler bumps batch-wide totals (jobs launched / completed / failed,
retries, cache hits, heartbeats) and sets last-value gauges (queue
depth, pool size) as events happen, and reads them back mid-batch — the
circuit breaker counts failures, the Prometheus snapshot renders them.
:meth:`MetricsRegistry.snapshot` renders everything as one
JSON-serializable ``{name: {"kind", "value"}}`` dict, the closing
``summary`` record of a service stream.  A run needs no live tally: its
aggregates are a fold of its iteration records
(:meth:`~repro.telemetry.RunTelemetry.aggregates`) in the same shape.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A last-value-wins scalar."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float | None:
        return self.value


class MetricsRegistry:
    """Lazily-created named instruments, one namespace per batch.

    ``registry.counter("jobs.completed").inc()`` — instruments are
    created on first use and an instrument name is pinned to one kind
    (asking for an existing counter as a gauge raises).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {inst.kind}, not a {cls.kind}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def names(self) -> list[str]:
        """All instrument names, sorted."""
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """All instruments rendered as ``{name: {kind, value}}``, sorted."""
        return {
            name: {"kind": inst.kind, "value": inst.snapshot()}
            for name, inst in sorted(self._instruments.items())
        }

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
