"""The per-rank loops: reference implementation of the three pooled phases.

``ParallelPIC`` runs scatter, gather+push and Eulerian migration as
single vectorized passes over the pooled particle array.  This module
keeps the formulation those passes replaced — every phase iterating
``for r in range(p)`` over that rank's own arrays and its own ghost
table, exactly as a real SPMD program would — as the oracle the parity
tests compare against.  The three method bodies are the former
``engine="looped"`` bodies of ``ParallelPIC``, verbatim.

What the oracle pins (``tests/test_engine_parity.py``,
``tests/test_equivalence_sweep.py``, ``tests/test_scatter_sparse.py``):
``vm.elapsed()``, per-rank clocks, ``vm.ops``, per-phase ``CommStats``,
the ghost schedule and ghost-table stats are *equal*, and particles and
fields are bit-equal (also under injected scatter poison), for every
worker count of the pooled path.
"""

import numpy as np

from repro.machine.collectives import exchange_by_destination
from repro.particles.arrays import ParticleArray
from repro.pic.deposition import CHANNELS, deposition_entries
from repro.pic.interpolation import gather_from_node_values
from repro.pic.parallel import ParallelPIC
from repro.pic.push import boris_push
from repro.pic.simulation import Simulation


class LoopedPIC(ParallelPIC):
    """``ParallelPIC`` with the three pooled phases replaced by per-rank loops."""

    def __init__(self, *args, **kwargs) -> None:
        assert not kwargs.get("workers") and kwargs.get("backend") is None, (
            "the oracle runs in-process"
        )
        super().__init__(*args, **kwargs)
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
            recv = vm.alltoallv(self._gather_sends(node_values))
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
                payloads.append(parts.to_matrix())
                dests.append(owner)
            vm.charge_ops("index", np.array([float(p.n) for p in self.particles]))
            received = exchange_by_destination(vm, payloads, dests)
            self.particles = [ParticleArray.from_matrix(m) for m in received]
            self._pool = None


class LoopedSimulation(Simulation):
    """``Simulation`` whose era-kernel stepper is the per-rank oracle."""

    def _build_stepper(self, vm, local):
        cfg = self.config
        assert cfg.kernel == "era" and self.backend is None
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
SIMULATIONS = {"flat": Simulation, "looped": LoopedSimulation}
