"""The live registry that run telemetry used to keep, as a test oracle.

Run aggregates are one fold over the run's records
(:meth:`repro.telemetry.RunTelemetry.aggregates`).  Before that, every
telemetry hook bumped a :class:`~repro.telemetry.MetricsRegistry` as it
ran, histograms included.  :class:`LiveRegistry` keeps those bumps, hook
by hook, so a test can feed it the same calls as a ``RunTelemetry`` and
compare the two blocks' JSON.
"""

from repro.telemetry import MetricsRegistry


class Histogram:
    """A streaming distribution summary (count / sum / min / max / mean)."""

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = self.max = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        return {"count": self.count, "sum": self.total, "min": self.min, "max": self.max,
                "mean": mean}  # fmt: skip


class LiveRegistry(MetricsRegistry):
    """A registry bumped by each telemetry hook, as the run's used to be."""

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def end_iteration(self, record: dict, *, p: int) -> None:
        """``RunTelemetry.end_iteration`` (``record`` is what it returned)."""
        if "ghost" in record:
            self.counter("ghost.entries").inc(max(record["ghost"]["entries"], 0.0))
        self.counter("iterations").inc()
        self.histogram("iteration.time").observe(record["t_iter"])
        self.histogram("load.imbalance").observe(record["imbalance"])
        self.gauge("load.imbalance.last").set(record["imbalance"])
        self.gauge("ranks.live").set(p)
        for phase, tallies in record["comm"].items():
            self.counter(f"comm.{phase}.msgs").inc(tallies["msgs"])
            self.counter(f"comm.{phase}.bytes").inc(tallies["bytes"])
        if record["redistributed"]:
            self.counter("redistribution.count").inc()
            self.histogram("redistribution.cost").observe(record["redistribution_cost"])

    def record_sar_decision(self, decision: dict) -> None:
        self.counter("sar.evaluations").inc()
        if decision.get("fired"):
            self.counter("sar.fired").inc()

    def record_guard_violation(self) -> None:
        self.counter("guard.violations").inc()

    def on_shrink(self) -> None:
        self.counter("recovery.count").inc()
