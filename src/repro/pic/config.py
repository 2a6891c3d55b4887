"""One experiment's :class:`SimulationConfig`, validated when built, and its dict form
(:func:`config_to_dict` / :func:`config_from_dict`) that results, jobs and checkpoints share."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields as dataclass_fields

from repro.core.policies import RedistributionPolicy, make_policy, policy_spec
from repro.indexing import available_schemes
from repro.machine.model import MachineModel
from repro.particles.init import gaussian_blob, ring_distribution, two_stream, uniform_plasma
from repro.util import require
from repro.util.guards import GUARD_MODES

__all__ = ["DISTRIBUTIONS", "SimulationConfig", "config_to_dict", "config_from_dict"]

#: distribution name -> particle sampler
DISTRIBUTIONS = {
    "uniform": uniform_plasma,
    "irregular": gaussian_blob,
    "two_stream": two_stream,
    "ring": ring_distribution,
}


@dataclass
class SimulationConfig:
    """Everything that defines one experiment run.

    Parameters mirror the paper's sweeps: mesh size, particle count,
    spatial distribution, indexing scheme, processors, and the
    redistribution policy.
    """

    nx: int = 64
    ny: int = 32
    nparticles: int = 8192
    p: int = 8
    distribution: str = "uniform"  #: uniform | irregular | two_stream | ring
    scheme: str = "hilbert"  #: indexing scheme name
    policy: str | RedistributionPolicy = "static"  #: any registered spec, e.g. static | periodic:<k> | dynamic | sar-ewma | costmodel:horizon=<n> | imbalance | planner
    movement: str = "lagrangian"  #: lagrangian | eulerian
    partitioning: str = "independent"  #: independent | grid | particle | adaptive
    ghost_table: str = "hash"  #: hash | direct
    field_solver: str = "maxwell"  #: maxwell | electrostatic (era kernel only)
    kernel: str = "era"  #: era (CIC + collocated FDTD, the paper) | modern (Yee + zigzag)
    model: MachineModel = field(default_factory=MachineModel.cm5)
    dt: float | None = None
    seed: int = 0
    nbuckets: int = 16
    vth: float = 0.05  #: thermal momentum spread of the sampler
    density: float = 0.01  #: mean charge density (sets the plasma frequency)
    guards: str = "off"  #: invariant-guard severity: off | warn | strict

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nparticles", "p", "seed", "nbuckets"):
            value = getattr(self, name)
            require(
                isinstance(value, numbers.Integral) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
        require(self.nx >= 2 and self.ny >= 2, f"nx and ny must be >= 2, got {self.nx}x{self.ny}")
        require(self.p >= 1, f"p must be >= 1, got {self.p}")

        def finite(name: str) -> float:
            value = getattr(self, name)
            require(
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value),
                f"{name} must be a finite number, got {value!r}",
            )
            return value

        require(finite("vth") >= 0, f"vth must be >= 0, got {self.vth!r}")
        require(finite("density") > 0, f"density must be > 0, got {self.density!r}")
        require(self.dt is None or finite("dt") > 0, f"dt must be > 0, got {self.dt!r}")
        require(
            isinstance(self.policy, (str, RedistributionPolicy)),
            f"policy must be a spec string or a RedistributionPolicy, got {self.policy!r}",
        )
        require(
            self.guards in GUARD_MODES,
            f"guards must be one of {GUARD_MODES}, got {self.guards!r}",
        )
        require(self.distribution in DISTRIBUTIONS, f"unknown distribution {self.distribution!r}")
        require(
            self.partitioning in ("independent", "grid", "particle", "adaptive"),
            f"unknown partitioning {self.partitioning!r}",
        )
        require(self.movement in ("lagrangian", "eulerian"), f"unknown movement {self.movement!r}")
        schemes = available_schemes()
        require(
            self.scheme in schemes,
            f"unknown scheme {self.scheme!r}; available: {', '.join(schemes)}",
        )
        require(
            self.ghost_table in ("hash", "direct"),
            f"unknown ghost_table {self.ghost_table!r}; expected 'hash' or 'direct'",
        )
        require(
            self.field_solver in ("maxwell", "electrostatic"),
            f"unknown field_solver {self.field_solver!r}; expected 'maxwell' or 'electrostatic'",
        )
        require(self.nbuckets >= 1, f"nbuckets must be >= 1, got {self.nbuckets!r}")
        if self.partitioning == "adaptive":
            require(
                self.movement == "eulerian",
                "adaptive partitioning rebalances cell ownership and requires eulerian movement",
            )
        require(self.kernel in ("era", "modern"), f"unknown kernel {self.kernel!r}")
        if self.kernel == "modern":
            require(
                self.movement == "lagrangian" and self.partitioning == "independent",
                "the modern kernel supports lagrangian movement with independent partitioning",
            )
            require(
                self.field_solver == "maxwell",
                "the modern kernel has its own (Yee) field solve",
            )
        require(self.nparticles >= self.p, "need at least one particle per rank")
        if isinstance(self.policy, str):
            # Validate the spec at config time (the registry raises on
            # unknown names/parameters), so a typo'd --policy fails here
            # rather than deep inside Simulation construction.
            make_policy(self.policy)


def config_to_dict(cfg: SimulationConfig, *, full_model: bool = False) -> dict:
    """JSON-serializable form of a :class:`SimulationConfig`.

    Every field round-trips through :func:`config_from_dict`: the policy
    is rendered as its canonical spec string and the machine model as its
    preset name (or, with ``full_model=True``, as the full constants dict
    checkpoints embed so custom models survive too).
    """
    out = {}
    for f in dataclass_fields(SimulationConfig):
        value = getattr(cfg, f.name)
        if f.name == "policy":
            value = policy_spec(value)
        elif f.name == "model":
            if full_model:
                value = value.to_dict()
            else:
                # Preset name when it resolves back to this exact model;
                # full constants dict otherwise (custom models must still
                # replay via --config).
                try:
                    is_preset = MachineModel.by_name(value.name) == value
                except ValueError:
                    is_preset = False
                value = value.name if is_preset else value.to_dict()
        out[f.name] = value
    return out


def config_from_dict(data: dict) -> SimulationConfig:
    """Build a :class:`SimulationConfig` from :func:`config_to_dict` output.

    ``model`` may be a preset name string or a full constants dict.
    Unknown keys and unresolvable models raise ``ValueError`` naming
    them.
    """
    data = dict(data)
    valid = {f.name for f in dataclass_fields(SimulationConfig)}
    unknown = set(data) - valid
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    model = data.get("model")
    if model is not None and not isinstance(model, MachineModel):
        try:
            if isinstance(model, str):
                data["model"] = MachineModel.by_name(model)
            elif isinstance(model, dict):
                data["model"] = MachineModel.from_dict(model)
            else:
                raise ValueError(f"model must be a name or a dict, got {model!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad machine model: {exc}") from exc
    return SimulationConfig(**data)
