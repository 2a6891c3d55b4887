"""Exact-resume checkpoint / restart of simulation state (format v3).

A checkpoint round-trips the *full* run state of a
:class:`~repro.pic.simulation.Simulation`, not just the physical state,
and this module is the one place that knows its keys: :func:`capture_run`
writes them, :func:`resume_run` and :func:`restore_history` read them.

* physical state — every rank's particles, the complete
  :class:`~repro.mesh.fields.FieldState`, grid geometry, the iteration;
* machine state — the :class:`~repro.machine.virtual.VirtualMachine`'s
  per-rank clocks, compute/comm splits, per-phase time tables, per-phase
  :class:`~repro.machine.stats.CommStats`, and op counters;
* control state — the full :class:`~repro.pic.config.SimulationConfig`
  (machine model constants included), the redistribution policy's
  internals, the decomposition's curve bounds (adaptive rebalancing moves
  them), the redistributor's build-time sort keys (the incremental sort
  classifies against them) and the per-iteration record history.

**Format v3** is one ``.npz`` whose members are *stored, not deflated*
and pooled in rank order, the way the run holds its state — a write
costs O(state) bytes of memcpy and the member count depends on neither
ranks nor iterations: ``format``/``version``/``meta``/``extent``, the
JSON header ``state_json`` (``run_state``, ``has_sort_keys``),
``particles`` ``(n, 9)`` + ``offsets`` ``(p+1,)`` (the
:class:`~repro.particles.arrays.ParticlePool` layout, its ``(9, n)``
block stored transposed, one particle per row), ``sort_keys``
``(n,)``, ``fields`` ``(10, ny, nx)`` and ``records``
(:data:`RECORD_DTYPE`); DESIGN.md §5.2 has the table.  A run's per-phase
rows are not stored: its metrics stream holds them.  There is no
compression setting: scratch checkpoints are deleted when their job
succeeds, and the zip CRC-32 of every member is still verified on load.

The exact-resume contract (``tests/test_resume_equivalence.py``): a run
checkpointed at iteration ``k`` and resumed via
``Simulation.from_checkpoint`` produces a ``SimulationResult`` *identical*
to the uninterrupted run, and the physical state matches at atol=0.
Writes are crash-safe (temp file + fsync + :func:`os.replace`), and
every way a file can fail to resume — bad CRC-32, short member, mangled
header, another format version, a missing or malformed run-state key, no
run state at all — ends in :class:`CheckpointError` naming the member or
key.  Only version 3 is read: no writer of versions 1 and 2 is left.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.policies import policy_from_state
from repro.machine.trace import PhaseTrace
from repro.mesh.decomposition import CurveBlockDecomposition
from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ROWS, ParticleArray, ParticlePool
from repro.pic.config import config_from_dict, config_to_dict
from repro.pic.result import RECORD_DTYPE, IterationRecord
from repro.util import require
from repro.util.atomic_io import atomic_writer
from repro.util.errors import CheckpointError
from repro.util.guards import GUARD_MODES

if TYPE_CHECKING:
    from repro.pic.simulation import Simulation

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
    "CheckpointError",
    "RECORD_DTYPE",
    "capture_run",
    "resume_run",
    "restore_history",
]

_FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
_FORMAT_VERSION = 3
_MAGIC = "repro-checkpoint"
#: particles per transposed chunk of the ``particles`` member (288 KiB)
_CHUNK = 4096


@dataclass
class CheckpointData:
    """In-memory form of a checkpoint (what :func:`load_checkpoint` returns).

    ``pool`` holds all ranks' particles in the pooled layout.
    ``run_state`` is the exact-resume payload (config, machine, policy,
    counters, decomposition bounds) as a JSON-compatible dict, ``None``
    for a physical-state-only file; ``sort_keys`` the redistributor's
    build-time keys, one vector aligned with ``pool`` (``None`` without a
    redistributor);
    ``records`` the history as :data:`RECORD_DTYPE` tuples.
    """

    grid: Grid2D
    fields: FieldState
    pool: ParticlePool
    iteration: int
    run_state: dict | None = None
    sort_keys: np.ndarray | None = None
    records: list[tuple] = field(default_factory=list)

    @property
    def particles(self) -> list[ParticleArray]:
        """Per-rank particle sets (views into :attr:`pool`)."""
        return self.pool.views

    @property
    def nranks(self) -> int:
        """Number of per-rank particle sets stored."""
        return self.pool.p


def _resolve_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _write_member(zf: zipfile.ZipFile, name: str, chunks, shape: tuple, dtype) -> None:
    """Store one ``.npy`` member from row chunks, without assembling them."""
    dtype = np.dtype(dtype)
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    rows = 0
    with zf.open(name + ".npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for chunk in chunks:
            chunk = np.ascontiguousarray(chunk, dtype=dtype)
            rows += chunk.shape[0]
            fh.write(chunk.reshape(-1).view(np.uint8))
    require(rows == shape[0], f"member {name!r}: chunks hold {rows} rows, header says {shape}")


def save_checkpoint(
    path: str | Path,
    grid: Grid2D,
    fields: FieldState,
    particles: list[ParticleArray],
    iteration: int,
    *,
    run_state: dict | None = None,
    sort_keys: np.ndarray | None = None,
    records: Sequence[tuple] = (),
) -> Path:
    """Write a format-v3 checkpoint to ``path`` (``.npz`` appended if missing).

    ``particles`` is a list of per-rank sets (pass ``[parts]`` for a
    sequential run).  ``run_state`` is the JSON-compatible exact-resume
    payload assembled by :func:`capture_run`; ``sort_keys`` the
    redistributor's build-time keys, one vector aligned with the particles
    in rank order; ``records`` the history as :data:`RECORD_DTYPE` tuples.
    All are optional, so the physical-state round trip works standalone.

    Members are written one at a time straight from the per-rank sets,
    the particle block as transposed chunks of :data:`_CHUNK` rows —
    no second copy of the particle state is ever held.  The write is
    atomic: a crash leaves the previous checkpoint or a stray ``.tmp``
    file, never a truncated archive under the target name.
    """
    require(iteration >= 0, "iteration must be >= 0")
    require(len(particles) >= 1, "need at least one particle set")
    path = _resolve_path(path)
    offsets = np.concatenate(([0], np.cumsum([parts.n for parts in particles]))).astype(np.int64)
    n = int(offsets[-1])
    require(
        sort_keys is None or np.shape(sort_keys) == (n,),
        "sort_keys must have one entry per particle",
    )
    state = {"run_state": run_state, "has_sort_keys": sort_keys is not None}
    small = {
        "format": np.array([_MAGIC]),
        "version": np.array([_FORMAT_VERSION]),
        "meta": np.array([grid.nx, grid.ny, iteration, len(particles)], dtype=np.int64),
        "extent": np.array([grid.lx, grid.ly]),
        "state_json": np.array([json.dumps(state)]),
        "offsets": offsets,
        # a list: NumPy would read an outer tuple as one record
        "records": np.array(list(records), dtype=RECORD_DTYPE),
    }
    with atomic_writer(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, array in small.items():
            _write_member(zf, name, [array], array.shape, array.dtype)
        rows = (p.block[:, i : i + _CHUNK].T for p in particles for i in range(0, p.n, _CHUNK))
        _write_member(zf, "particles", rows, (n, len(ROWS)), np.float64)
        if sort_keys is not None:
            _write_member(zf, "sort_keys", [sort_keys], (n,), np.asarray(sort_keys).dtype)
        blocks = (getattr(fields, name)[None] for name in _FIELD_NAMES)
        _write_member(zf, "fields", blocks, (len(_FIELD_NAMES), *fields.shape), np.float64)
    return path


def _open_archive(fh, path: Path):
    """``np.load`` over the caller's open file, which its ``with`` closes on every
    path (handed a path, NumPy leaks its handle when a zip directory is bad)."""
    try:
        archive = np.load(fh)
    except Exception as exc:  # noqa: BLE001 - a damaged zip directory fails in many types
        raise CheckpointError(f"{path} is not a repro checkpoint (.npz archive): {exc}") from exc
    if not hasattr(archive, "files"):  # a bare .npy array, not an archive
        raise CheckpointError(f"{path} is not a repro checkpoint (.npz archive)")
    return archive


def load_checkpoint(path: str | Path) -> CheckpointData:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises
    ------
    FileNotFoundError
        ``path`` (with or without the ``.npz`` suffix) does not exist.
    CheckpointError
        The file exists but is not a valid repro checkpoint: not an npz
        archive, a version other than 3 (the message names it), missing
        keys (the message lists missing and found), a corrupt or
        truncated member (bad CRC-32, short data, mangled header — the
        message names it), or members that contradict each other.
    """
    path = Path(path)
    if not path.exists():
        resolved = _resolve_path(path)
        if not resolved.exists():
            raise FileNotFoundError(
                f"checkpoint file not found: {path}"
                + (f" (also tried {resolved})" if resolved != path else "")
            )
        path = resolved
    with open(path, "rb") as fh, _open_archive(fh, path) as data:
        found = set(data.files)

        def read(key: str) -> np.ndarray:
            try:
                return data[key]
            except Exception as exc:  # noqa: BLE001 - BadZipFile (CRC-32), zlib.error, EOFError...
                raise CheckpointError(
                    f"{path}: member {key!r} is corrupt or truncated ({type(exc).__name__}: {exc})"
                ) from exc

        def need(*keys: str) -> None:
            missing = sorted(set(keys) - found)
            if missing:
                raise CheckpointError(
                    f"{path} is not a complete repro checkpoint: missing keys {missing} "
                    f"(found {sorted(found)})"
                )

        try:
            need("version")
            version = int(read("version")[0])
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint version {version} not supported "
                    f"(this build reads version {_FORMAT_VERSION} only)"
                )
            magic = str(read("format")[0]) if "format" in found else None
            if magic != _MAGIC:
                raise CheckpointError(
                    f"{path} is not a repro checkpoint: format marker is {magic!r}, "
                    f"expected {_MAGIC!r}"
                )
            need("state_json")
            state = json.loads(str(read("state_json")[0]))
            run_state, has_sort_keys = state["run_state"], bool(state["has_sort_keys"])
            need("meta", "extent")
            nx, ny, iteration, nranks = (int(v) for v in read("meta"))
            lx, ly = (float(v) for v in read("extent"))
            need("particles", "offsets", "fields", "records")
            block = np.ascontiguousarray(read("particles").T, dtype=np.float64)
            pool = ParticlePool(ParticleArray.from_block(block), read("offsets"))
            field_block = read("fields")
            keys = read("sort_keys") if has_sort_keys else None
            records = read("records").astype(RECORD_DTYPE, casting="equiv").tolist()
            require(pool.p == nranks, f"{pool.p} particle segments for nranks={nranks}")
            require(
                field_block.shape == (len(_FIELD_NAMES), ny, nx),
                f"field block of shape {field_block.shape} on a {nx}x{ny} grid",
            )
            if keys is not None:
                require(keys.shape == (pool.n,), f"{keys.shape} sort keys for {pool.n} particles")
            return CheckpointData(
                Grid2D(nx, ny, lx=lx, ly=ly),
                FieldState(*field_block),
                pool,
                iteration,
                run_state=run_state,
                sort_keys=keys,
                records=records,
            )
        except CheckpointError:
            raise
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise CheckpointError(f"{path}: inconsistent checkpoint members: {exc}") from exc


# ----------------------------------------------------------------------
# the run state of a Simulation
# ----------------------------------------------------------------------
def capture_run(sim: Simulation, path: str | Path) -> Path:
    """Write ``sim``'s full run state as a format-v3 checkpoint; return the path.

    Serializes the physical state (particles pooled in rank order,
    fields, grid), the virtual machine (clocks, compute/comm splits,
    per-phase times and comm stats, op counters), the policy
    internals, the current decomposition bounds, the redistributor's
    build-time sort keys, and the per-iteration record history as an array.
    """
    run_state = {
        "config": config_to_dict(sim.config, full_model=True),
        "vm": sim.vm.state_dict(),
        "policy": sim.policy.state_dict(),
        "n_redistributions": sim.n_redistributions,
        "redistribution_time": sim.redistribution_time,
        "n_recoveries": sim.n_recoveries,
        "recovery_time": sim.recovery_time,
        "setup_cost": sim._setup_cost,
        # the *live* decomposition: adaptive rebalancing swaps it at
        # runtime (pic.decomp), which Simulation.decomp tracks
        "decomp_bounds": sim.pic.decomp.curve_bounds.tolist(),
    }
    if sim.correlation is not None:
        # batch identity rides along (optional key: standalone
        # checkpoints stay byte-identical), so a checkpoint is
        # joinable with its batch's service stream
        run_state["correlation"] = dict(sim.correlation)
    return save_checkpoint(
        path,
        sim.grid,
        sim.pic.fields,
        sim.pic.particles,
        sim.iteration,
        run_state=run_state,
        sort_keys=(
            sim.redistributor.export_keys() if sim.redistributor is not None else None
        ),
        records=list(map(attrgetter(*RECORD_DTYPE.names), sim.records)),
    )


def _read(path, run_state: dict, key: str, parse):
    """``parse(run_state[key])``; a missing or malformed key is a :class:`CheckpointError`."""
    try:
        value = run_state[key]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: run state has no {key!r} key") from exc
    try:
        return parse(value)
    except CheckpointError:
        raise
    except (AttributeError, ValueError, TypeError, KeyError, IndexError) as exc:
        raise CheckpointError(f"{path}: run_state.{key} is malformed: {exc}") from exc


def resume_run(
    cls: type[Simulation], path: str | Path, *, guards: str | None, workers: int | str
) -> Simulation:
    """A ``cls`` (a :class:`~repro.pic.simulation.Simulation`) resumed from ``path``.

    Builds it from the embedded configuration (``guards`` overriding its
    severity), then overwrites every piece of mutable state from the
    archive; ``workers`` only picks the shard-thread count.
    """
    if guards is not None:
        require(
            guards in GUARD_MODES,
            f"guards must be one of {GUARD_MODES}, got {guards!r}",
        )
    data = load_checkpoint(path)
    if data.run_state is None:
        raise CheckpointError(
            f"{path} has no run state (particles/fields only) and cannot seed "
            "an exact resume: only Simulation.checkpoint writes one"
        )
    cfg = _read(path, data.run_state, "config", config_from_dict)
    if guards is not None and guards != cfg.guards:
        cfg = replace(cfg, guards=guards)
    sim = cls(cfg, workers=workers)
    try:
        _restore(sim, data, path)
    except BaseException:
        sim.close()
        raise
    sim._last_checkpoint = Path(path)
    return sim


def restore_history(sim: Simulation, data: CheckpointData, path) -> None:
    """Policy, history, redistribution totals and setup cost from a checkpoint."""
    rs = data.run_state
    sim.policy = _read(path, rs, "policy", policy_from_state)
    sim.records = [IterationRecord(*row) for row in data.records]
    sim.n_redistributions = _read(path, rs, "n_redistributions", int)
    sim.redistribution_time = _read(path, rs, "redistribution_time", float)
    sim._setup_cost = _read(path, rs, "setup_cost", float)


def _restore(sim: Simulation, data: CheckpointData, path) -> None:
    cfg, rs = sim.config, data.run_state
    if (data.grid.nx, data.grid.ny) != (sim.grid.nx, sim.grid.ny):
        raise CheckpointError(
            f"checkpoint grid {data.grid.nx}x{data.grid.ny} does not match "
            f"config grid {sim.grid.nx}x{sim.grid.ny}"
        )
    if len(data.particles) != cfg.p:
        raise CheckpointError(
            f"checkpoint has {len(data.particles)} particle sets, config p={cfg.p}"
        )
    bounds = _read(path, rs, "decomp_bounds", lambda b: np.asarray(b, dtype=np.int64))
    if not np.array_equal(bounds, sim.decomp.curve_bounds):
        # Adaptive rebalancing moved the block boundaries at runtime.
        try:
            decomp = CurveBlockDecomposition(sim.grid, cfg.p, cfg.scheme, bounds=bounds)
        except ValueError as exc:
            raise CheckpointError(f"{path}: run_state.decomp_bounds is malformed: {exc}") from exc
        sim.decomp = decomp
        sim.pic.set_decomposition(decomp)
    sim.pic.pool = data.pool
    sim.pic.fields = data.fields
    sim.pic.iteration = data.iteration
    _read(path, rs, "vm", sim.vm.load_state)
    # the next phase row starts from the restored breakdown: time
    # charged before the checkpoint belongs to no row of this run
    sim.trace = PhaseTrace(sim.vm)
    restore_history(sim, data, path)
    sim.policy.bind(sim.vm)
    if sim.redistributor is not None:
        if data.sort_keys is None:
            raise CheckpointError(
                "checkpoint carries no redistribution sort keys but the "
                "configured run (lagrangian movement) needs them"
            )
        sim.redistributor.restore_keys(data.sort_keys, data.pool)
    sim.iteration = data.iteration
    sim.n_recoveries = _read(path, rs, "n_recoveries", int)
    sim.recovery_time = _read(path, rs, "recovery_time", float)
    # batch identity (absent from standalone checkpoints); the job
    # service re-stamps the current attempt
    sim.correlation = (
        _read(path, rs, "correlation", dict) if rs.get("correlation") is not None else None
    )
