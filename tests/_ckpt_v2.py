"""The format-v2 checkpoint writer, kept as a test-only oracle.

This is the formulation ``repro.pic.checkpoint`` deleted when it moved
to format v3: one deflated transport matrix and one sort-key vector
*per rank*, one member per field component, and the per-iteration
history serialised through ``dataclasses.asdict`` + JSON inside
``run_state``.  The library only *reads* such files now; the tests use
this writer to prove that it still does, exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.pic.simulation import Simulation, config_to_dict
from repro.util.atomic_io import atomic_writer

FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


def save_checkpoint_v2(
    path, grid, fields, particles, iteration, *, run_state=None, sort_keys=None
) -> Path:
    """Write a format-v2 archive (the deleted ``save_checkpoint``)."""
    path = Path(path)
    payload = {
        "format": np.array(["repro-checkpoint"]),
        "version": np.array([2]),
        "meta": np.array([grid.nx, grid.ny, iteration, len(particles)], dtype=np.int64),
        "extent": np.array([grid.lx, grid.ly]),
        "state_json": np.array(
            [json.dumps({"run_state": run_state, "has_sort_keys": sort_keys is not None})]
        ),
    }
    for name in FIELD_NAMES:
        payload[f"field_{name}"] = getattr(fields, name)
    for r, parts in enumerate(particles):
        payload[f"rank{r}_matrix"] = np.ascontiguousarray(parts.block.T)
    if sort_keys is not None:
        for r, keys in enumerate(sort_keys):
            payload[f"rank{r}_sortkeys"] = np.asarray(keys)
    with atomic_writer(path, "wb") as fh:
        np.savez_compressed(fh, **payload)
    return path


def checkpoint_v2(sim: Simulation, path) -> Path:
    """``Simulation.checkpoint`` as it was before format v3."""
    run_state = {
        "config": config_to_dict(sim.config, full_model=True),
        "vm": sim.vm.state_dict(),
        "policy": sim.policy.state_dict(),
        "records": [asdict(r) for r in sim.records],
        "n_redistributions": sim.n_redistributions,
        "redistribution_time": sim.redistribution_time,
        "n_recoveries": sim.n_recoveries,
        "recovery_time": sim.recovery_time,
        "setup_cost": sim._setup_cost,
        "decomp_bounds": sim.pic.decomp.curve_bounds.tolist(),
        "trace_rows": sim.trace.rows,
    }
    if sim.correlation is not None:
        run_state["correlation"] = dict(sim.correlation)
    sort_keys = None
    if sim.redistributor is not None:  # v2 stored one key vector per rank
        sort_keys = np.split(sim.redistributor.export_keys(), sim.pic.pool.offsets[1:-1])
    return save_checkpoint_v2(
        path,
        sim.grid,
        sim.pic.fields,
        sim.pic.particles,
        sim.iteration,
        run_state=run_state,
        sort_keys=sort_keys,
    )
