"""Exact-resume checkpoint / restart of simulation state (format v3).

A checkpoint round-trips the *full* run state of a
:class:`~repro.pic.simulation.Simulation`, not just the physical state:

* physical state — every rank's particles, the complete
  :class:`~repro.mesh.fields.FieldState`, grid geometry, the iteration;
* machine state — the :class:`~repro.machine.virtual.VirtualMachine`'s
  per-rank clocks, compute/comm splits, per-phase time tables, per-phase
  :class:`~repro.machine.stats.CommStats`, and op counters;
* control state — the full :class:`~repro.pic.simulation.SimulationConfig`
  (machine model constants included), the redistribution policy's
  internals, the decomposition's curve bounds (adaptive rebalancing moves
  them), the redistributor's build-time sort keys (the incremental sort
  classifies against them), the per-iteration record history, and the
  :class:`~repro.machine.trace.PhaseTrace` rows (so a resumed run's
  telemetry covers the full history, not just the post-resume tail).

**Format v3** is one ``.npz`` whose members are *stored, not deflated*
and pooled in rank order, the way the run holds its state — a write
costs O(state) bytes of memcpy and the member count depends on neither
ranks nor iterations: ``format``/``version``/``meta``/``extent``, the
JSON header ``state_json`` (``run_state``, ``has_sort_keys``,
``trace_phases``), ``particles`` ``(n, 9)`` + ``offsets`` ``(p+1,)`` (the
:class:`~repro.particles.arrays.ParticlePool` layout, its ``(9, n)``
block stored transposed, one particle per row), ``sort_keys``
``(n,)``, ``fields`` ``(10, ny, nx)``, ``records`` (:data:`RECORD_DTYPE`)
and ``trace_rows`` ``(iterations, phases)`` (NaN = phase absent from the
row); DESIGN.md §5.2 has the table.  There is no compression setting:
scratch checkpoints are deleted when their job succeeds, and the zip
CRC-32 of every member is still verified on load.

The exact-resume contract (``tests/test_resume_equivalence.py``): a run
checkpointed at iteration ``k`` and resumed via
``Simulation.from_checkpoint`` produces a ``SimulationResult`` *identical*
to the uninterrupted run, and the physical state matches at atol=0.
Writes are crash-safe (temp file + fsync + :func:`os.replace`), and
every way a corrupt or truncated archive can fail to load — bad CRC-32,
short member, mangled header — ends in :class:`CheckpointError` naming
the member.

**Older files are read-only.**  v2 (deflated per-rank matrices and key
vectors, one member per field, history as JSON) and v1 (particles /
fields / iteration only; loads with a :class:`UserWarning` and
``run_state=None``, so it cannot seed ``Simulation.from_checkpoint``)
go through the same code path, their per-rank members concatenated into
the pooled form.
"""

from __future__ import annotations

import json
import warnings
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ROWS, ParticleArray, ParticlePool
from repro.util import require
from repro.util.atomic_io import atomic_writer
from repro.util.errors import CheckpointError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
    "CheckpointError",
    "RECORD_DTYPE",
]

_FIELD_NAMES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
_FORMAT_VERSION = 3
_MAGIC = "repro-checkpoint"
#: particles per transposed chunk of the ``particles`` member (288 KiB)
_CHUNK = 4096

#: One ``records`` row: the fields of :class:`~repro.pic.simulation.IterationRecord`.
RECORD_DTYPE = np.dtype(
    [("iteration", "i8"), ("time", "f8"), ("scatter_max_bytes", "i8"),
     ("scatter_max_msgs", "i8"), ("redistributed", "?"), ("redistribution_cost", "f8")]
)  # fmt: skip


@dataclass
class CheckpointData:
    """In-memory form of a checkpoint (what :func:`load_checkpoint` returns).

    ``pool`` holds all ranks' particles in the pooled layout.
    ``run_state`` is the exact-resume payload (config, machine, policy,
    counters, decomposition bounds) as a JSON-compatible dict, ``None``
    for v1 files; ``sort_keys`` the redistributor's build-time keys, one
    vector aligned with ``pool`` (``None`` without a redistributor);
    ``records`` the history as :data:`RECORD_DTYPE` tuples; ``trace_rows``
    the phase-profile dicts.
    """

    grid: Grid2D
    fields: FieldState
    pool: ParticlePool
    iteration: int
    version: int = _FORMAT_VERSION
    run_state: dict | None = None
    sort_keys: np.ndarray | None = None
    records: list[tuple] = field(default_factory=list)
    trace_rows: list[dict[str, float]] = field(default_factory=list)

    @property
    def particles(self) -> list[ParticleArray]:
        """Per-rank particle sets (views into :attr:`pool`)."""
        return self.pool.views

    @property
    def nranks(self) -> int:
        """Number of per-rank particle sets stored."""
        return self.pool.p

    def all_particles(self) -> ParticleArray:
        """All particles in rank order (the pooled array itself)."""
        return self.pool.array


def _resolve_path(path: str | Path) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _pack_rows(rows: Sequence[dict[str, float]]) -> tuple[list[str], np.ndarray]:
    """Dict rows as a ``(len(rows), ncolumns)`` block; NaN = key absent."""
    columns = sorted(set().union(*rows))
    block = np.array([[row.get(c, np.nan) for c in columns] for row in rows], dtype=np.float64)
    return columns, block.reshape(len(rows), len(columns))


def _unpack_rows(columns: list[str], block: np.ndarray) -> list[dict[str, float]]:
    return [{c: v for c, v in zip(columns, row) if v == v} for row in block.tolist()]  # NaN != NaN


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
    trace_rows: Sequence[dict[str, float]] = (),
) -> Path:
    """Write a format-v3 checkpoint to ``path`` (``.npz`` appended if missing).

    ``particles`` is a list of per-rank sets (pass ``[parts]`` for a
    sequential run).  ``run_state`` is the JSON-compatible exact-resume
    payload assembled by ``Simulation.checkpoint``; ``sort_keys`` the
    redistributor's build-time keys, one vector aligned with the particles
    in rank order; ``records`` the history as :data:`RECORD_DTYPE` tuples;
    ``trace_rows`` the phase-profile dicts.
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
    phases, trace_block = _pack_rows(trace_rows)
    state = {"run_state": run_state, "has_sort_keys": sort_keys is not None, "trace_phases": phases}
    small = {
        "format": np.array([_MAGIC]),
        "version": np.array([_FORMAT_VERSION]),
        "meta": np.array([grid.nx, grid.ny, iteration, len(particles)], dtype=np.int64),
        "extent": np.array([grid.lx, grid.ly]),
        "state_json": np.array([json.dumps(state)]),
        "offsets": offsets,
        # a list: NumPy would read an outer tuple as one record
        "records": np.array(list(records), dtype=RECORD_DTYPE),
        "trace_rows": trace_block,
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


def load_checkpoint(path: str | Path, *, strict: bool = False) -> CheckpointData:
    """Read a checkpoint written by :func:`save_checkpoint` (any version).

    With ``strict=True`` (what ``--guards strict`` runs use) legacy
    format-v1 files raise :class:`CheckpointError` instead of loading
    with a :class:`UserWarning` — a degraded restore is an error, not a
    caveat, when integrity guarantees were requested.

    Raises
    ------
    FileNotFoundError
        ``path`` (with or without the ``.npz`` suffix) does not exist.
    CheckpointError
        The file exists but is not a valid repro checkpoint: not an npz
        archive, an unsupported version, missing keys (the message lists
        missing and found), a corrupt or truncated member (bad CRC-32,
        short data, mangled header — the message names it), members that
        contradict each other, or a v1 file under ``strict=True``.
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
    try:
        archive = np.load(path)
    except Exception as exc:  # noqa: BLE001 - a damaged zip directory fails in many types
        raise CheckpointError(f"{path} is not a repro checkpoint (.npz archive): {exc}") from exc
    if not hasattr(archive, "files"):  # a bare .npy array, not an archive
        raise CheckpointError(f"{path} is not a repro checkpoint (.npz archive)")
    with archive as data:
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
            if version not in (1, 2, _FORMAT_VERSION):
                raise CheckpointError(
                    f"{path}: checkpoint version {version} not supported "
                    f"(this build reads versions 1, 2 and {_FORMAT_VERSION})"
                )
            state = {"run_state": None, "has_sort_keys": False}
            if version == 1:
                message = (
                    f"{path} is a format-v1 checkpoint: only particles/fields/iteration are "
                    "stored, so it cannot seed an exact resume (Simulation.from_checkpoint); "
                    f"re-save with Simulation.checkpoint to upgrade to v{_FORMAT_VERSION}"
                )
                if strict:
                    raise CheckpointError(message + " — strict guards refuse the degraded load")
                warnings.warn(message, UserWarning, stacklevel=2)
            else:
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
            ranks = range(nranks)
            if version == _FORMAT_VERSION:
                need("particles", "offsets", "fields", "records", "trace_rows")
                block = np.ascontiguousarray(read("particles").T, dtype=np.float64)
                pool = ParticlePool(ParticleArray.from_block(block), read("offsets"))
                field_block = read("fields")
                keys = read("sort_keys") if has_sort_keys else None
                records = read("records").astype(RECORD_DTYPE, casting="equiv").tolist()
                trace_rows = _unpack_rows(state["trace_phases"], read("trace_rows"))
            else:  # per-rank / per-field members, concatenated into the pooled form
                need(*(f"field_{name}" for name in _FIELD_NAMES))
                need(*(f"rank{r}_matrix" for r in ranks))
                mats = [read(f"rank{r}_matrix").reshape(-1, len(ROWS)) for r in ranks]
                offsets = np.cumsum([0] + [m.shape[0] for m in mats])
                block = np.ascontiguousarray(np.concatenate(mats).T, dtype=np.float64)
                pool = ParticlePool(ParticleArray.from_block(block), offsets)
                field_block = np.stack([read(f"field_{name}") for name in _FIELD_NAMES])
                keys = None
                if has_sort_keys:
                    keys = np.concatenate([read(f"rank{r}_sortkeys") for r in ranks])
                # v2 kept the history as JSON inside run_state
                history = run_state or {}
                records = [
                    tuple(row[name] for name in RECORD_DTYPE.names)
                    for row in history.pop("records", ())
                ]
                trace_rows = history.pop("trace_rows", [])
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
                version=version,
                run_state=run_state,
                sort_keys=keys,
                records=records,
                trace_rows=trace_rows,
            )
        except CheckpointError:
            raise
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise CheckpointError(f"{path}: inconsistent checkpoint members: {exc}") from exc
