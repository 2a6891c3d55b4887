"""Two-level machine cost model (paper §4).

A unit computation costs ``delta`` seconds; a message costs ``tau``
start-up plus ``mu`` seconds per byte, independent of distance — the
paper states these assumptions "closely model the behavior of the CM-5".

Computation is charged per *category* (scatter / gather / field / push /
sort / index ...) so that experiments can separate "computation time"
from "overhead" the way the paper's Figures 21–22 do.  Each category has
a unit cost expressed as a multiple of ``delta``.  Charging a category
the model has no weight for is almost always a caller typo that would
silently distort every derived figure, so it warns once per category by
default and raises under strict accounting (``guards="strict"``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.util import require_positive

__all__ = ["MachineModel"]

#: Default operation weights (units of ``delta`` per counted operation).
#: The counted operations follow the paper's analysis: ``scatter`` and
#: ``gather`` are per particle-vertex (4 per particle), ``field`` per
#: grid point per solver sweep, ``push`` per particle, ``sort`` per
#: particle per classification/merge pass, ``index`` per particle.
DEFAULT_OP_WEIGHTS: Mapping[str, float] = {
    "scatter": 30.0,  # find vertex, interpolate weight, accumulate
    "gather": 35.0,  # interpolate E and B contributions
    "field": 40.0,  # 5-point curl/update stencil, E and B
    "push": 80.0,  # relativistic Boris rotation + position update
    "sort": 8.0,  # per-element classification / merge work
    "index": 12.0,  # cell lookup + Hilbert key bits
    "table": 2.0,  # ghost-table insert/probe/merge steps
}


@dataclass(frozen=True)
class MachineModel:
    """Cost constants of the simulated machine.

    Parameters
    ----------
    delta:
        Seconds per unit operation (one "flop-ish" step).
    tau:
        Message start-up latency in seconds, charged per message at both
        the sender and the receiver.
    mu:
        Seconds per transferred byte (inverse bandwidth).
    op_weights:
        Units of ``delta`` per counted operation for each category.
    name:
        Human-readable preset name for reports.
    """

    delta: float = 2.0e-7
    tau: float = 86.0e-6
    mu: float = 0.125e-6
    op_weights: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_OP_WEIGHTS))
    name: str = "custom"

    def __post_init__(self) -> None:
        require_positive(self.delta, "delta")
        require_positive(self.tau, "tau", strict=False)
        require_positive(self.mu, "mu", strict=False)
        for key, weight in self.op_weights.items():
            require_positive(weight, f"op_weights[{key!r}]")
        # Non-field mutable cache on a frozen dataclass: categories this
        # instance has already warned about, so a hot loop charging a
        # misspelled category does not flood stderr.
        object.__setattr__(self, "_warned_categories", set())

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def cm5(cls) -> "MachineModel":
        """CM-5 without vector units: ~5 Mop/s nodes, 86 us start-up, ~8 MB/s.

        These constants put 200-iteration runs of the paper's workloads in
        the same tens-to-hundreds-of-seconds range as its Table 2.
        """
        return cls(delta=2.0e-7, tau=86.0e-6, mu=0.125e-6, name="cm5")

    @classmethod
    def modern(cls) -> "MachineModel":
        """A contemporary commodity cluster: ~1 Gop/s effective, 2 us, 10 GB/s.

        The compute/communication ratio is much larger than the CM-5's,
        which the paper predicts lowers efficiency at fixed granularity —
        useful for the scaling discussion in EXPERIMENTS.md.
        """
        return cls(delta=1.0e-9, tau=2.0e-6, mu=1.0e-10, name="modern")

    @classmethod
    def zero_compute(cls) -> "MachineModel":
        """Communication-only model: isolates message traffic in tests."""
        weights = {k: 1e-30 for k in DEFAULT_OP_WEIGHTS}
        return cls(delta=1e-30, tau=86.0e-6, mu=0.125e-6, op_weights=weights, name="zero-compute")

    @classmethod
    def by_name(cls, name: str) -> "MachineModel":
        """Return the preset called ``name`` (``cm5`` | ``modern`` | ``zero-compute``)."""
        presets = {"cm5": cls.cm5, "modern": cls.modern, "zero-compute": cls.zero_compute}
        if name not in presets:
            known = ", ".join(sorted(presets))
            raise ValueError(f"unknown machine model {name!r}; known presets: {known}")
        return presets[name]()

    # ------------------------------------------------------------------
    # serialization (configs / checkpoints)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form (full constants, not just the name)."""
        return {
            "name": self.name,
            "delta": self.delta,
            "tau": self.tau,
            "mu": self.mu,
            "op_weights": dict(self.op_weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            delta=float(data["delta"]),
            tau=float(data["tau"]),
            mu=float(data["mu"]),
            op_weights={k: float(v) for k, v in data["op_weights"].items()},
            name=str(data["name"]),
        )

    # ------------------------------------------------------------------
    # cost functions
    # ------------------------------------------------------------------
    def compute_cost(
        self, category: str, count: float | np.ndarray, *, strict: bool = False
    ) -> float | np.ndarray:
        """Seconds of computation for ``count`` operations of ``category``
        (a count, or an array of per-rank counts priced elementwise).

        A category outside :attr:`op_weights` is charged one ``delta``
        per operation, but never silently: it warns once per category
        (and instance), or raises ``ValueError`` when ``strict`` — the
        way :class:`~repro.pic.simulation.Simulation` runs it under
        ``guards="strict"``.  A typo'd category otherwise deflates the
        charge by 1–2 orders of magnitude and skews every derived
        compute/overhead split.
        """
        counts = np.atleast_1d(count)
        negative = counts[counts < 0]
        if negative.size:
            raise ValueError(f"operation count must be >= 0, got {negative[0]}")
        weight = self.op_weights.get(category)
        if weight is None:
            known = ", ".join(sorted(self.op_weights))
            if strict:
                raise ValueError(
                    f"unknown op category {category!r}; known: {known}"
                )
            if category not in self._warned_categories:
                self._warned_categories.add(category)
                warnings.warn(
                    f"charging unknown op category {category!r} at weight 1.0 "
                    f"(known: {known}); pass an op_weights entry or fix the "
                    f"category name",
                    stacklevel=2,
                )
            weight = 1.0
        return count * weight * self.delta

    def message_cost(self, nbytes: float, nmessages: int = 1) -> float:
        """Seconds to send/receive ``nmessages`` totalling ``nbytes`` bytes."""
        if nbytes < 0 or nmessages < 0:
            raise ValueError("nbytes and nmessages must be >= 0")
        return nmessages * self.tau + nbytes * self.mu

    def collective_cost(self, p: int, nbytes_total: float) -> float:
        """Seconds for a tree-based collective over ``p`` ranks moving
        ``nbytes_total`` bytes end-to-end (e.g. allreduce / concatenate).

        The CM-5 had hardware support for global operations; a
        ``ceil(log2 p)``-depth tree is a faithful, slightly conservative
        stand-in.
        """
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if p == 1:
            return 0.0
        depth = int(np.ceil(np.log2(p)))
        return depth * (self.tau + nbytes_total * self.mu)
