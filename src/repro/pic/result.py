"""A run's history (:class:`IterationRecord`: the series of Figs 17–19 and Eq. 1's input,
stored as :data:`RECORD_DTYPE` rows) and its end-of-run :class:`SimulationResult`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.particles.arrays import ParticleArray
from repro.pic.config import SimulationConfig, config_to_dict

__all__ = ["IterationRecord", "RECORD_DTYPE", "SimulationResult", "final_state_summary"]


@dataclass
class IterationRecord:
    """Per-iteration observables (the series of Figures 17–19)."""

    iteration: int
    time: float  #: virtual seconds of this iteration (excl. redistribution)
    scatter_max_bytes: int  #: max data sent/recv by any rank in scatter
    scatter_max_msgs: int  #: max messages sent/recv by any rank in scatter
    redistributed: bool  #: whether a redistribution followed this iteration
    redistribution_cost: float  #: virtual seconds of that redistribution


#: One :class:`IterationRecord` as a row of the checkpoint's ``records`` member.
RECORD_DTYPE = np.dtype(
    [("iteration", "i8"), ("time", "f8"), ("scatter_max_bytes", "i8"),
     ("scatter_max_msgs", "i8"), ("redistributed", "?"), ("redistribution_cost", "f8")]
)  # fmt: skip


@dataclass
class SimulationResult:
    """End-of-run summary plus the per-iteration history."""

    config: SimulationConfig
    records: list[IterationRecord]
    total_time: float  #: virtual execution time incl. redistributions
    computation_time: float  #: max-over-ranks pure compute time
    n_redistributions: int
    redistribution_time: float  #: total virtual seconds spent redistributing
    phase_breakdown: dict[str, float]  #: per-phase max-over-ranks time
    n_recoveries: int = 0  #: rank failures recovered from
    recovery_time: float = 0.0  #: virtual seconds spent detecting + recovering
    final_state: dict | None = None  #: physics summary (:func:`final_state_summary`)
    telemetry: dict | None = None  #: final metric aggregates (None = telemetry off)
    correlation: dict | None = None  #: batch identity stamp (None = standalone run)
    #: always ``None``: every ``workers`` request shards on the team, whatever
    #: the kernel (``benchmarks/e2e`` reads it to check that no run fell back)
    degraded = None

    @property
    def overhead(self) -> float:
        """Execution time minus computation time (paper Figs 21–22)."""
        return self.total_time - self.computation_time

    @property
    def iteration_times(self) -> np.ndarray:
        """Per-iteration execution-time series (paper Fig 17)."""
        return np.array([r.time for r in self.records])

    @property
    def scatter_max_bytes(self) -> np.ndarray:
        """Per-iteration scatter max-bytes series (paper Fig 18)."""
        return np.array([r.scatter_max_bytes for r in self.records], dtype=np.int64)

    @property
    def scatter_max_msgs(self) -> np.ndarray:
        """Per-iteration scatter max-messages series (paper Fig 19)."""
        return np.array([r.scatter_max_msgs for r in self.records], dtype=np.int64)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable summary plus per-iteration series.

        The ``config`` block is the complete :class:`SimulationConfig`
        (via :func:`config_to_dict`), so a saved run's config feeds back
        through ``repro run --config`` to an identical run.

        With telemetry enabled a ``telemetry`` block of final metric
        aggregates is appended; with telemetry off the output is
        byte-identical to a pre-telemetry run (the zero-cost contract).
        """
        out = {
            "config": config_to_dict(self.config),
            "totals": {
                "iterations": len(self.records),
                "total_time": self.total_time,
                "computation_time": self.computation_time,
                "overhead": self.overhead,
                "n_redistributions": self.n_redistributions,
                "redistribution_time": self.redistribution_time,
                "n_recoveries": self.n_recoveries,
                "recovery_time": self.recovery_time,
            },
            "final_state": self.final_state,
            "phase_breakdown": dict(self.phase_breakdown),
            "series": {
                "iteration_time": self.iteration_times.tolist(),
                "scatter_max_bytes": self.scatter_max_bytes.tolist(),
                "scatter_max_msgs": self.scatter_max_msgs.tolist(),
                "redistributed": [r.redistributed for r in self.records],
            },
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        if self.correlation is not None:
            # present only on scheduler-stamped runs, so standalone runs
            # keep byte-identical output: the batch_id/job_id/attempt identity that
            # joins this document with the batch's service stream
            out["correlation"] = dict(self.correlation)
        return out

    def save_json(self, path) -> None:
        """Atomically write :meth:`to_dict` to ``path`` as JSON."""
        from repro.util.atomic_io import atomic_write_json

        atomic_write_json(path, self.to_dict())


def final_state_summary(pic, iteration: int) -> dict:
    """Rank-count-independent physics summary of ``pic``'s state after ``iteration`` iterations.

    Every particle reduction sums in a deterministic order (sorted by
    persistent particle id), so the summary of a run that shrank from
    ``p`` to ``p - 1`` ranks is comparable at tight tolerance to the
    fault-free run's — the atol=1e-12 recovery contract of
    DESIGN.md §5.3 is stated on exactly these numbers.
    """
    parts = ParticleArray.concat(pic.particles)
    order = np.argsort(parts.ids, kind="stable")
    x, y, ux, uy, uz, q = (float(np.sum(row[order])) for row in parts.block[:6])
    f = pic.fields
    return {
        "iteration": int(iteration),
        "n_particles": int(parts.n),
        "total_charge": q,
        "x_sum": x,
        "y_sum": y,
        "ux_sum": ux,
        "uy_sum": uy,
        "uz_sum": uz,
        "rho_sum": float(np.sum(f.rho)),
        "e_energy": float(np.sum(f.ex**2 + f.ey**2 + f.ez**2)),
        "b_energy": float(np.sum(f.bx**2 + f.by**2 + f.bz**2)),
    }
