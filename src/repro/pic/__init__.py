"""Particle-in-cell application: the four phases of the paper's §2.

* Scatter — :mod:`repro.pic.deposition` (CIC charge/current deposition)
* Field solve — :mod:`repro.pic.maxwell` (FDTD, 5-point stencil) and
  :mod:`repro.pic.poisson` (electrostatic option)
* Gather — :mod:`repro.pic.interpolation` (CIC field interpolation)
* Push — :mod:`repro.pic.push` (relativistic Boris pusher)

:class:`SequentialPIC` composes them into the single-processor reference
implementation; :class:`ParallelPIC` runs the same physics SPMD over the
virtual machine with ghost-grid-point communication
(:mod:`repro.pic.ghost`), and :class:`Simulation` drives iterations,
redistribution policies, and history recording.
"""

from repro.pic.deposition import deposit_charge_current, deposition_entries
from repro.pic.interpolation import interpolate_fields
from repro.pic.push import boris_push
from repro.pic.maxwell import MaxwellSolver
from repro.pic.poisson import PoissonSolver
from repro.pic.ghost import DirectAddressTable, HashGhostTable, make_ghost_table
from repro.pic.sequential import SequentialPIC
from repro.pic.parallel import ParallelPIC
from repro.pic.simulation import (
    Simulation,
    SimulationConfig,
    SimulationResult,
    config_from_dict,
    config_to_dict,
)
from repro.pic.diagnostics import DiagnosticsRecorder, DiagnosticsSample
from repro.pic.checkpoint import (
    CheckpointData,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.pic.smoothing import binomial_smooth
from repro.pic.yee import YeePIC, YeeSolver
from repro.pic.parallel_yee import ParallelYeePIC
from repro.pic.zigzag import continuity_residual, deposit_current_zigzag

__all__ = [
    "deposit_charge_current",
    "deposition_entries",
    "interpolate_fields",
    "boris_push",
    "MaxwellSolver",
    "PoissonSolver",
    "DirectAddressTable",
    "HashGhostTable",
    "make_ghost_table",
    "SequentialPIC",
    "ParallelPIC",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "config_to_dict",
    "config_from_dict",
    "DiagnosticsRecorder",
    "DiagnosticsSample",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
    "CheckpointError",
    "binomial_smooth",
    "YeeSolver",
    "YeePIC",
    "ParallelYeePIC",
    "deposit_current_zigzag",
    "continuity_residual",
]
