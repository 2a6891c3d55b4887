"""The per-rank loops: reference implementation of the pooled phases.

``ParallelPIC`` and ``ParallelYeePIC`` run their phases as single
vectorized passes over the pooled particle array.  This module keeps the
formulation those passes replaced — every phase iterating ``for r in
range(p)`` over that rank's own arrays and its own ghost table, exactly
as a real SPMD program would — as the oracle the parity tests compare
against.  ``LoopedPIC``'s three bodies are the former ``engine="looped"``
bodies of ``ParallelPIC``, ``LoopedYeePIC``'s four the pre-pooling
``ParallelYeePIC`` methods, verbatim.  The kernels those bodies call were
themselves re-derived for the pooled steppers (axis-separable CIC, an
``fmod`` wrap, zigzag as entry lists), so the formulations *they*
replaced are kept too, as the ``reference_*`` functions at the end
(``tests/test_yee_pooled_parity.py`` pins bit-equality), and so is the
per-entry ghost bookkeeping the era scatter ran before it moved onto
``(rank, cell)`` pairs (``reference_scatter_segment``,
``tests/test_scatter_sparse.py``), and so is the per-rank dict router on
``vm.alltoallv`` that ``exchange_by_destination_pooled`` replaced
(``looped_exchange_by_destination``, ``tests/test_vm_exchange.py``).

What the oracle pins (``tests/test_engine_parity.py``,
``tests/test_equivalence_sweep.py``, ``tests/test_scatter_sparse.py``):
``vm.elapsed()``, per-rank clocks, ``vm.ops``, per-phase ``CommStats``,
the ghost schedule and ghost-table stats are *equal*, and particles and
fields are bit-equal (also under injected scatter poison), for every
worker count of the pooled path.  ``tests/test_yee_pooled_parity.py``
pins the same for the modern stepper, plus ``last_gather_replies``.
"""

import numpy as np

from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.sort import KeyedBlock
from repro.pic.deposition import CHANNELS, deposition_entries, pooled_ghost_keys
from repro.pic.ghost import make_ghost_table
from repro.pic.interpolation import gather_from_node_values
from repro.pic.parallel import ParallelPIC
from repro.pic.parallel_yee import ParallelYeePIC
from repro.pic.push import boris_push
from repro.pic.simulation import Simulation
from repro.pic.yee import staggered_cic
from repro.pic.zigzag import deposit_current_zigzag
from repro.util.errors import InvalidRankError


class LoopedPIC(ParallelPIC):
    """``ParallelPIC`` with the three pooled phases replaced by per-rank loops."""

    # plain attributes here: the product class derives these views from its batches
    _ghost_nodes = None
    last_gather_messages = None

    def __init__(self, *args, **kwargs) -> None:
        assert kwargs.get("backend") is None, "the oracle runs in-process"
        super().__init__(*args, **kwargs)
        self.ghost_tables = [
            make_ghost_table(self.ghost_table, self.grid.nnodes, len(CHANNELS))
            for _ in range(self.vm.p)
        ]
        self._ghost_nodes = [dict() for _ in range(self.vm.p)]
        self.last_gather_messages = []
        # Per-rank CIC (nodes, weights) computed by the latest scatter,
        # keyed by particle-array identity; reused by the gather (the
        # push runs after it) and dropped once consumed.
        self._cic_cache: list[tuple[ParticleArray, np.ndarray, np.ndarray]] | None = None

    def scatter(self) -> None:
        """Per-rank reference scatter."""
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        acc = np.zeros((len(CHANNELS), nnodes))
        sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
        ghost_nodes: list[dict[int, np.ndarray]] = []
        cic_cache: list[tuple[ParticleArray, np.ndarray, np.ndarray]] = []
        nchannels = len(CHANNELS)
        with vm.phase("scatter"):
            table_ops = np.zeros(vm.p)
            for r in range(vm.p):
                parts = self.particles[r]
                vertices = grid.cic_vertices_weights(parts.x, parts.y)
                cic_cache.append((parts, vertices[0], vertices[1]))
                nodes, values = deposition_entries(grid, parts, vertices)
                flat_nodes = nodes.ravel()
                flat_values = values.reshape(nchannels, -1)
                owners = self.node_owner[flat_nodes]
                mine = owners == r
                ghost_idx = np.flatnonzero(~mine)
                if ghost_idx.size:
                    mine_idx = np.flatnonzero(mine)
                    nodes_mine = flat_nodes.take(mine_idx)
                    values_mine = flat_values.take(mine_idx, axis=1)
                else:
                    nodes_mine = flat_nodes
                    values_mine = flat_values
                # On-rank contributions accumulate directly.
                for c in range(nchannels):
                    acc[c] += np.bincount(
                        nodes_mine, weights=values_mine[c], minlength=nnodes
                    )
                chunk: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                ghosts: dict[int, np.ndarray] = {}
                if ghost_idx.size:
                    # Off-rank contributions: duplicate removal + coalescing.
                    table = self.ghost_tables[r]
                    ops_before = table.stats.ops
                    table.accumulate(
                        flat_nodes.take(ghost_idx), flat_values.take(ghost_idx, axis=1)
                    )
                    uniq, summed = table.flush()
                    table_ops[r] = table.stats.ops - ops_before
                    ghost_owner = self.node_owner[uniq]
                    for owner in np.unique(ghost_owner):
                        sel = ghost_owner == owner
                        ids = uniq[sel]
                        chunk[int(owner)] = (ids, np.ascontiguousarray(summed[:, sel]))
                        ghosts[int(owner)] = ids
                sends.append(chunk)
                ghost_nodes.append(ghosts)
            vm.charge_ops("scatter", np.array([4.0 * p.n for p in self.particles]))
            vm.charge_ops("table", table_ops)

            recv = vm.alltoallv(sends)
            merge_ops = np.zeros(vm.p)
            for r in range(vm.p):
                for _, (ids, vals) in sorted(recv[r].items()):
                    for c in range(len(CHANNELS)):
                        acc[c] += np.bincount(ids, weights=vals[c], minlength=nnodes)
                    merge_ops[r] += ids.size
            vm.charge_ops("table", merge_ops)

        self._ghost_nodes = ghost_nodes
        self._cic_cache = cic_cache
        self._finish_scatter(acc)

    def gather_push(self) -> None:
        vm = self.vm
        grid = self.grid
        node_values = self._field_node_values()
        with vm.phase("gather"):
            # inverse of the scatter exchange: owners send E, B at the ghost
            # nodes each contributor registered this iteration
            sends = [dict() for _ in range(vm.p)]
            for r in range(vm.p):
                for owner, ids in self._ghost_nodes[r].items():
                    sends[owner][r] = (ids, np.ascontiguousarray(node_values[:, ids]))
            recv = vm.alltoallv(sends)
            if self.collect_debug:
                self.last_gather_messages = recv
            vm.charge_ops("gather", np.array([4.0 * p.n for p in self.particles]))
            cached = self._cic_cache
            self._cic_cache = None  # positions change in the push below
            eb = []
            for r in range(vm.p):
                parts = self.particles[r]
                if cached is not None and cached[r][0] is parts:
                    nodes, weights = cached[r][1], cached[r][2]
                else:
                    nodes, weights = grid.cic_vertices_weights(parts.x, parts.y)
                both = gather_from_node_values(node_values, nodes, weights)
                eb.append(both)
        with vm.phase("push"):
            vm.charge_ops("push", np.array([float(p.n) for p in self.particles]))
            for r in range(vm.p):
                parts = self.particles[r]
                if parts.n:
                    boris_push(grid, parts, eb[r][:3], eb[r][3:], self.dt)
        if self.movement == "eulerian":
            self._migrate_eulerian()

    def _migrate_eulerian(self) -> None:
        vm = self.vm
        with vm.phase("migration"):
            payloads = []
            dests = []
            for r in range(vm.p):
                parts = self.particles[r]
                cells = self.grid.cell_id_of_positions(parts.x, parts.y)
                owner = self.decomp.owner_of_cells(cells)
                payloads.append(parts.block.T)
                dests.append(owner)
            vm.charge_ops("index", np.array([float(p.n) for p in self.particles]))
            received = looped_exchange_by_destination(vm, payloads, dests)
            self.pool = ParticlePool.from_ranks(
                [ParticleArray.from_block(m.T.copy()) for m in received]
            )



def looped_exchange_by_destination(vm, arrays, destinations):
    """Route rank ``r``'s rows ``arrays[r]`` to ``destinations[r]``: per
    rank a stable split by destination into a ``{dst: rows}`` dict, one
    ``vm.alltoallv``, and per destination the concatenation of what it
    received in source order (an empty ``arrays[0][:0]`` if nothing)."""
    send = []
    for r in range(vm.p):
        rows = np.asarray(arrays[r])
        dest = np.asarray(destinations[r], dtype=np.int64)
        assert rows.shape[0] == dest.shape[0], f"rank {r}: array/destination length mismatch"
        bad = np.flatnonzero((dest < 0) | (dest >= vm.p))
        if bad.size:
            raise InvalidRankError(f"rank {r} row {bad[0]}: destination {dest[bad[0]]} out of range")
        order = np.argsort(dest, kind="stable")
        sorted_rows, sorted_dest = rows[order], dest[order]
        uniq, starts = np.unique(sorted_dest, return_index=True)
        bounds = np.append(starts, dest.size)
        send.append({int(d): sorted_rows[bounds[i] : bounds[i + 1]] for i, d in enumerate(uniq)})
    recv = vm.alltoallv(send)
    empty = np.asarray(arrays[0])[:0]
    return [np.concatenate([recv[d][s] for s in sorted(recv[d])] or [empty]) for d in range(vm.p)]


def keyed_block(keys, values) -> KeyedBlock:
    """Per-rank keys and ``(width, n_r)`` values as one pooled block."""
    offsets = np.cumsum([0] + [len(k) for k in keys])
    return KeyedBlock(np.concatenate(values, axis=1), np.concatenate(keys), offsets)


def per_rank(block: KeyedBlock) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """A pooled block cut back into per-rank ``(keys, values)`` lists."""
    cut = block.offsets[1:-1]
    return np.split(block.keys, cut), np.split(block.values, cut, axis=1)


#: Stagger shifts of each gathered component, in cell units.
_COMPONENT_SHIFTS = {
    "ex": (0.5, 0.0),
    "ey": (0.0, 0.5),
    "ez": (0.0, 0.0),
    "bx": (0.0, 0.5),
    "by": (0.5, 0.0),
    "bz": (0.5, 0.5),
}


class LoopedYeePIC(ParallelYeePIC):
    """``ParallelYeePIC`` with every phase a per-rank loop.

    The four bodies are the pre-pooling ``ParallelYeePIC`` methods,
    verbatim: per-rank stencils and ``np.unique`` request lists, one
    dense ``deposit_current_zigzag`` mesh and one ghost table per rank
    and step, per-message merges.  No guard or profiler hooks — the
    oracle only has to produce the reference messages, charges and
    floats.
    """

    last_gather_replies = None  # a plain attribute here, a batch view in the product class

    def __init__(self, *args, ghost_table: str = "hash", **kwargs) -> None:
        self._ghost_kind = ghost_table  # read by _distributed_rho during construction
        super().__init__(*args, **kwargs)
        self.last_gather_replies = []

    def _distributed_rho(self) -> None:
        """CIC charge deposition with ghost communication (rho only)."""
        vm = self.vm
        grid = self.grid
        acc = np.zeros(grid.nnodes)
        with vm.phase("scatter"):
            sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
            for r in range(vm.p):
                parts = self.particles[r]
                nodes, weights = grid.cic_vertices_weights(parts.x, parts.y)
                values = (weights * (parts.w * parts.q)[:, None]).ravel()
                flat = nodes.ravel()
                owners = self.node_owner[flat]
                mine = owners == r
                acc += np.bincount(flat[mine], weights=values[mine], minlength=grid.nnodes)
                table = make_ghost_table(self._ghost_kind, grid.nnodes, 1)
                table.accumulate(flat[~mine], values[~mine][None, :])
                uniq, summed = table.flush()
                chunk: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                if uniq.size:
                    ghost_owner = self.node_owner[uniq]
                    for owner in np.unique(ghost_owner):
                        sel = ghost_owner == owner
                        chunk[int(owner)] = (uniq[sel], np.ascontiguousarray(summed[:, sel]))
                sends.append(chunk)
            vm.charge_ops("scatter", np.array([4.0 * p.n for p in self.particles]))
            recv = vm.alltoallv(sends)
            for r in range(vm.p):
                for _, (ids, vals) in sorted(recv[r].items()):
                    acc += np.bincount(ids, weights=vals[0], minlength=grid.nnodes)
        self.fields.rho = (acc / (grid.dx * grid.dy)).reshape(grid.shape)

    # ------------------------------------------------------------------
    # gather phase (request/reply)
    # ------------------------------------------------------------------
    def _gather(self) -> list[np.ndarray]:
        """Return per-rank (6, n_local) interpolated staggered fields."""
        vm = self.vm
        grid = self.grid
        node_values = self._field_node_values()
        per_rank_stencils: list[dict[str, tuple[np.ndarray, np.ndarray]]] = []
        requests: list[dict[int, np.ndarray]] = []
        with vm.phase("gather"):
            for r in range(vm.p):
                parts = self.particles[r]
                stencils = {
                    name: staggered_cic(grid, parts.x, parts.y, sx, sy)
                    for name, (sx, sy) in _COMPONENT_SHIFTS.items()
                }
                per_rank_stencils.append(stencils)
                all_nodes = (
                    np.unique(np.concatenate([s[0].ravel() for s in stencils.values()]))
                    if parts.n
                    else np.empty(0, dtype=np.int64)
                )
                owners = self.node_owner[all_nodes]
                off = owners != r
                chunk: dict[int, np.ndarray] = {}
                needed = all_nodes[off]
                for owner in np.unique(owners[off]):
                    chunk[int(owner)] = needed[owners[off] == owner]
                requests.append(chunk)
            vm.charge_ops("gather", np.array([4.0 * p.n for p in self.particles]))
            # round 1: requests (node-id lists)
            incoming = vm.alltoallv(requests)
            # round 2: replies (six component values per requested node)
            replies: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
                dict() for _ in range(vm.p)
            ]
            for owner in range(vm.p):
                for requester, ids in incoming[owner].items():
                    replies[owner][requester] = (
                        ids,
                        np.ascontiguousarray(node_values[:, ids]),
                    )
            delivered = vm.alltoallv(replies)
            self.last_gather_replies = delivered
            # interpolate (values verified equal to owners' data by tests)
            out = []
            for r in range(vm.p):
                stencils = per_rank_stencils[r]
                rows = []
                for c, name in enumerate(_COMPONENT_SHIFTS):
                    nodes, weights = stencils[name]
                    rows.append(
                        gather_from_node_values(node_values[c : c + 1], nodes, weights)[0]
                    )
                out.append(np.stack(rows) if rows else np.zeros((6, 0)))
        return out

    # ------------------------------------------------------------------
    # scatter phase (zigzag currents + CIC charge)
    # ------------------------------------------------------------------
    def _scatter(self, olds: list[tuple[np.ndarray, np.ndarray]]) -> None:
        vm = self.vm
        grid = self.grid
        nnodes = grid.nnodes
        acc = np.zeros((4, nnodes))  # jx, jy, jz, rho (jx/jy face-centred)
        with vm.phase("scatter"):
            sends: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []
            for r in range(vm.p):
                parts = self.particles[r]
                x_old, y_old = olds[r]
                jx, jy = deposit_current_zigzag(
                    grid, x_old, y_old, parts.x, parts.y, parts.w * parts.q, self.dt
                )
                # jz and rho by CIC (node-centred)
                nodes, values = deposition_entries(grid, parts)
                flat = nodes.ravel()
                jz_vals = values[3].ravel()
                rho_vals = values[0].ravel()
                # split everything by owner; the dense jx/jy grids are
                # converted to sparse (node, value) entry lists first
                entries_nodes = []
                entries_vals = []
                for c, dense in enumerate((jx.ravel() * grid.dx * grid.dy, jy.ravel() * grid.dx * grid.dy)):
                    nz = np.flatnonzero(dense)
                    entries_nodes.append(nz)
                    vals = np.zeros((4, nz.size))
                    vals[c] = dense[nz]
                    entries_vals.append(vals)
                cic_vals = np.zeros((4, flat.size))
                cic_vals[2] = jz_vals
                cic_vals[3] = rho_vals
                entries_nodes.append(flat)
                entries_vals.append(cic_vals)
                all_nodes = np.concatenate(entries_nodes)
                all_vals = np.concatenate(entries_vals, axis=1)
                owners = self.node_owner[all_nodes]
                mine = owners == r
                for c in range(4):
                    acc[c] += np.bincount(
                        all_nodes[mine], weights=all_vals[c][mine], minlength=nnodes
                    )
                table = make_ghost_table(self._ghost_kind, nnodes, 4)
                table.accumulate(all_nodes[~mine], all_vals[:, ~mine])
                uniq, summed = table.flush()
                chunk: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                if uniq.size:
                    ghost_owner = self.node_owner[uniq]
                    for owner in np.unique(ghost_owner):
                        sel = ghost_owner == owner
                        chunk[int(owner)] = (uniq[sel], np.ascontiguousarray(summed[:, sel]))
                sends.append(chunk)
            vm.charge_ops("scatter", np.array([8.0 * p.n for p in self.particles]))
            recv = vm.alltoallv(sends)
            for r in range(vm.p):
                for _, (ids, vals) in sorted(recv[r].items()):
                    for c in range(4):
                        acc[c] += np.bincount(ids, weights=vals[c], minlength=nnodes)
        scale = 1.0 / (grid.dx * grid.dy)
        self.fields.jx = (acc[0] * scale).reshape(grid.shape)
        self.fields.jy = (acc[1] * scale).reshape(grid.shape)
        self.fields.jz = (acc[2] * scale).reshape(grid.shape)
        self.fields.rho = (acc[3] * scale).reshape(grid.shape)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One charge-conserving iteration: gather, push, scatter, solve."""
        vm = self.vm
        eb = self._gather()
        olds = []
        with vm.phase("push"):
            vm.charge_ops("push", np.array([float(p.n) for p in self.particles]))
            for r in range(vm.p):
                parts = self.particles[r]
                olds.append((parts.x.copy(), parts.y.copy()))
                if parts.n:
                    boris_push(self.grid, parts, eb[r][:3], eb[r][3:], self.dt)
        self._scatter(olds)
        with vm.phase("field"):
            self.halo.exchange(vm, self._field_node_values(), ncomponents=6)
            vm.charge_ops("field", self.node_counts)
            self.solver.step(self.fields, self.dt)
        self.iteration += 1


class LoopedSimulation(Simulation):
    """``Simulation`` whose stepper is the per-rank oracle of its kernel."""

    def _build_stepper(self, vm, local):
        cfg = self.config
        assert self.backend is None
        if cfg.kernel == "modern":
            return LoopedYeePIC(
                vm, self.grid, self.decomp, local, dt=cfg.dt, ghost_table=cfg.ghost_table
            )
        return LoopedPIC(
            vm,
            self.grid,
            self.decomp,
            local,
            dt=cfg.dt,
            ghost_table=cfg.ghost_table,
            movement=cfg.movement,
            field_solver=cfg.field_solver,
        )


#: what the ``engine`` / ``looped`` test parameters select: "flat" is the
#: product class, "looped" the same class over the per-rank oracle
STEPPERS = {"flat": ParallelPIC, "looped": LoopedPIC}
YEE_STEPPERS = {"flat": ParallelYeePIC, "looped": LoopedYeePIC}
SIMULATIONS = {"flat": Simulation, "looped": LoopedSimulation}


# ----------------------------------------------------------------------
# the kernel formulations the pooled steppers' kernels replaced
# ----------------------------------------------------------------------
def reference_wrap_positions(grid, x, y):
    """``Grid2D.wrap_positions`` as ``np.mod`` plus the fold of ``L`` to 0."""
    xw = np.mod(x, grid.lx)
    yw = np.mod(y, grid.ly)
    xw = np.where(xw >= grid.lx, 0.0, xw)
    yw = np.where(yw >= grid.ly, 0.0, yw)
    return xw, yw


def reference_cic_vertices_weights(grid, x, y):
    """``Grid2D.cic_vertices_weights`` evaluated on both axes at once."""
    xw, yw = reference_wrap_positions(grid, np.asarray(x, float), np.asarray(y, float))
    fx = xw / grid.dx
    fy = yw / grid.dy
    cx = np.floor(fx).astype(np.int64)
    cy = np.floor(fy).astype(np.int64)
    np.clip(cx, 0, grid.nx - 1, out=cx)
    np.clip(cy, 0, grid.ny - 1, out=cy)
    tx = fx - cx  # fractional offsets in [0, 1)
    ty = fy - cy
    cx1 = (cx + 1) % grid.nx
    cy1 = (cy + 1) % grid.ny
    nodes = np.stack(
        [
            cy * grid.nx + cx,
            cy * grid.nx + cx1,
            cy1 * grid.nx + cx,
            cy1 * grid.nx + cx1,
        ],
        axis=-1,
    ).astype(np.int64)
    weights = np.stack(
        [
            (1.0 - tx) * (1.0 - ty),
            tx * (1.0 - ty),
            (1.0 - tx) * ty,
            tx * ty,
        ],
        axis=-1,
    )
    return nodes, weights


def reference_deposit_current_zigzag(grid, x_old, y_old, x_new, y_new, charge, dt):
    """``deposit_current_zigzag`` as eight ``np.add.at`` calls on dense meshes."""
    x_old = np.asarray(x_old, float)
    y_old = np.asarray(y_old, float)
    x_new = np.asarray(x_new, float)
    y_new = np.asarray(y_new, float)
    charge = np.asarray(charge, float)
    n = x_old.shape[0]

    # Unwrapped coordinates: wrapped start + shortest periodic move.
    x1, y1 = reference_wrap_positions(grid, x_old, y_old)
    dx_move = np.mod(x_new - x_old + grid.lx / 2, grid.lx) - grid.lx / 2
    dy_move = np.mod(y_new - y_old + grid.ly / 2, grid.ly) - grid.ly / 2
    if n and (np.abs(dx_move).max() >= grid.dx or np.abs(dy_move).max() >= grid.dy):
        raise ValueError("zigzag deposition requires moves of less than one cell per step")
    x2 = x1 + dx_move
    y2 = y1 + dy_move

    c1x = np.clip(np.floor(x1 / grid.dx).astype(np.int64), 0, grid.nx - 1)
    c1y = np.clip(np.floor(y1 / grid.dy).astype(np.int64), 0, grid.ny - 1)
    c2x = np.floor(x2 / grid.dx).astype(np.int64)  # may be -1 or nx (unwrapped)
    c2y = np.floor(y2 / grid.dy).astype(np.int64)

    def relay(a1, a2, c1, c2, d):
        boundary = np.maximum(c1, c2) * d  # the face between the two cells
        mid = 0.5 * (a1 + a2)
        return np.where(c1 == c2, mid, boundary)

    xr = relay(x1, x2, c1x, c2x, grid.dx)
    yr = relay(y1, y2, c1y, c2y, grid.dy)

    jx = np.zeros(grid.shape)
    jy = np.zeros(grid.shape)
    inv_area = 1.0 / (grid.dx * grid.dy)
    flat_jx = jx.reshape(-1)
    flat_jy = jy.reshape(-1)

    def deposit_segment(xa, ya, xb, yb, cx, cy):
        """Deposit one straight sub-segment lying inside cell (cx, cy)."""
        fx = charge * (xb - xa) / dt
        fy = charge * (yb - ya) / dt
        wy = 0.5 * (ya + yb) / grid.dy - cy  # transverse weight in [0, 1]
        wx = 0.5 * (xa + xb) / grid.dx - cx
        cxw = np.mod(cx, grid.nx)
        cyw = np.mod(cy, grid.ny)
        cyw1 = np.mod(cy + 1, grid.ny)
        cxw1 = np.mod(cx + 1, grid.nx)
        # Jx on faces (cx + 1/2, cy) and (cx + 1/2, cy + 1)
        np.add.at(flat_jx, cyw * grid.nx + cxw, fx * (1.0 - wy) * inv_area)
        np.add.at(flat_jx, cyw1 * grid.nx + cxw, fx * wy * inv_area)
        # Jy on faces (cx, cy + 1/2) and (cx + 1, cy + 1/2)
        np.add.at(flat_jy, cyw * grid.nx + cxw, fy * (1.0 - wx) * inv_area)
        np.add.at(flat_jy, cyw * grid.nx + cxw1, fy * wx * inv_area)

    deposit_segment(x1, y1, xr, yr, c1x, c1y)
    deposit_segment(xr, yr, x2, y2, c2x, c2y)
    return jx, jy


def reference_gather_from_node_values(node_values, nodes, weights):
    """``gather_from_node_values`` as a fancy index of the ``(ncomp,
    nnodes)`` rows: ncomp reads ``nnodes * 8`` bytes apart per vertex."""
    gathered = node_values[:, nodes]  # (ncomp, n, 4)
    return np.einsum("cnv,nv->cn", gathered, weights)


# ----------------------------------------------------------------------
# the per-entry ghost bookkeeping the (rank, cell) pair path replaced
# ----------------------------------------------------------------------
def segmented_entry_ranks(counts: np.ndarray) -> np.ndarray:
    """Depositing rank of each flattened CIC entry of a pooled array.

    A pooled particle array is rank-segment ordered, and each particle
    contributes 4 entries in ``nodes.ravel()`` order, so rank ``r``'s
    entries occupy the contiguous slice ``[4 * offsets[r], 4 *
    offsets[r + 1])``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(np.arange(counts.shape[0], dtype=np.int64), 4 * counts)


def pooled_duplicate_removal(nnodes, p, entry_ranks, nodes, values):
    """All ranks' ghost duplicate removal in one pass over the *entries*.

    Finds the sorted unique ``rank * nnodes + node`` keys of the entry
    list (``np.unique(..., return_inverse=True)``) and sums each
    channel's duplicates with one ``bincount`` over the inverse map, in
    pool order.  Returns ``(uniq_nodes, uniq_ranks, summed, seg)`` with
    rank ``r``'s unique entries at ``[seg[r], seg[r + 1])``.
    """
    uniq_nodes, uniq_ranks, inverse = pooled_ghost_keys(nnodes, entry_ranks, nodes)
    nchannels = values.shape[0]
    summed = np.empty((nchannels, uniq_nodes.size))
    for c in range(nchannels):
        summed[c] = np.bincount(inverse, weights=values[c], minlength=uniq_nodes.size)
    seg = np.searchsorted(uniq_ranks, np.arange(p + 1, dtype=np.int64))
    return uniq_nodes, uniq_ranks, summed, seg


def reference_scatter_segment(grid, parts, counts, node_owner, out_row):
    """``scatter_segment`` with owner lookup and duplicate removal per entry;
    the messages come back as per-rank ``(owner, ids, values)`` lists."""
    nranks = int(counts.shape[0])
    nchannels = len(CHANNELS)
    nnodes = grid.nnodes
    vertices = grid.cic_vertices_weights(parts.x, parts.y)
    nodes, values = deposition_entries(grid, parts, vertices)
    flat_nodes = nodes.ravel()
    flat_values = values.reshape(nchannels, -1)
    local_rank = np.repeat(np.arange(nranks, dtype=np.int64), 4 * counts)
    ghost = node_owner[flat_nodes] != local_rank
    ghost_idx = np.flatnonzero(ghost)
    mine_idx = np.flatnonzero(~ghost)
    for c in range(nchannels):
        out_row[c] = np.bincount(
            flat_nodes.take(mine_idx), weights=flat_values[c].take(mine_idx), minlength=nnodes
        )

    g_ranks = local_rank.take(ghost_idx)
    uniq_nodes, _, summed, seg = pooled_duplicate_removal(
        nnodes, nranks, g_ranks, flat_nodes.take(ghost_idx), flat_values.take(ghost_idx, axis=1)
    )
    messages: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
    for lr in range(nranks):
        ids, vals = uniq_nodes[seg[lr] : seg[lr + 1]], summed[:, seg[lr] : seg[lr + 1]]
        owners = node_owner[ids]
        messages.append(
            [(int(o), ids[owners == o], vals[:, owners == o]) for o in np.unique(owners)]
        )
    return out_row, np.bincount(g_ranks, minlength=nranks), np.diff(seg), messages
