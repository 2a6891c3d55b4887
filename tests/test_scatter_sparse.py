"""The pooled scatter is O(entries + nodes): no dense per-rank mesh rows.

A node's on-rank ("mine") deposition entries all come from the rank that
owns it, so the scatter replaces the ``(p, 4, nnodes)`` per-rank row
block + p-row reduce by one pooled bincount per shard, and the
per-message ghost merge by one seeded bincount (DESIGN.md §5.5).  The
dense formulation it replaced lives on here as a test-only oracle; the
results must stay *bit-identical* to it, and the dense block must not
come back unnoticed.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core import ParticlePartitioner
from repro.machine import FaultEvent, FaultPlan, MachineModel, VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.native.calls import Shards
from repro.parallel_exec import FlatBackend, create_backend
from repro.parallel_exec.kernels import reduce_rank_rows, scatter_segment
from repro.particles import ParticleArray, ParticlePool, gaussian_blob, uniform_plasma
from repro.pic import ParallelPIC, Simulation, SimulationConfig
from repro.pic.deposition import CHANNELS, accumulate_entries, deposition_entries, ghost_slots
from repro.pic.ghost import GHOST_TABLES
from repro.pic.zigzag import deposit_current_zigzag
from tests._looped_oracle import (
    STEPPERS,
    YEE_STEPPERS,
    pooled_duplicate_removal,
    reference_scatter_segment,
    segmented_entry_ranks,
)

NCH = len(CHANNELS)


# ----------------------------------------------------------------------
# the deleted dense formulation, kept as the oracle
# ----------------------------------------------------------------------
def dense_row_scatter(grid, local, node_owner):
    """Dense-row scatter: ``(p, 4, nnodes)`` rows keyed by (rank, node),
    reduced in ascending rank order, then one ``minlength=nnodes``
    bincount per received message in (dest, src) order.

    Returns ``(acc, entries_per_rank, uniq_per_rank, messages)`` with
    ``messages[(dst, src)] = (ids, values)``.
    """
    p, nnodes = len(local), grid.nnodes
    pool = ParticlePool.from_ranks(local)
    nodes, values = deposition_entries(grid, pool.array)
    flat_nodes, flat_values = nodes.ravel(), values.reshape(NCH, -1)
    rank = segmented_entry_ranks(pool.counts)
    ghost = node_owner[flat_nodes] != rank

    key = rank[~ghost] * nnodes + flat_nodes[~ghost]
    rows = np.empty((p, NCH, nnodes))
    for c in range(NCH):
        rows[:, c, :] = np.bincount(
            key, weights=flat_values[c][~ghost], minlength=p * nnodes
        ).reshape(p, nnodes)
    acc = np.zeros((NCH, nnodes))
    for r in range(p):
        acc += rows[r]

    uniq_nodes, _, summed, seg = pooled_duplicate_removal(
        nnodes, p, rank[ghost], flat_nodes[ghost], flat_values[:, ghost]
    )
    messages = {}
    for src in range(p):
        ids = uniq_nodes[seg[src] : seg[src + 1]]
        vals = summed[:, seg[src] : seg[src + 1]]
        owner = node_owner[ids]
        for dst in np.unique(owner):
            messages[(int(dst), src)] = (ids[owner == dst], vals[:, owner == dst])
    for dst_src in sorted(messages):
        ids, vals = messages[dst_src]
        for c in range(NCH):
            acc[c] += np.bincount(ids, weights=vals[c], minlength=nnodes)
    return acc, np.bincount(rank[ghost], minlength=p), np.diff(seg), messages


@st.composite
def scatter_cases(draw):
    """(grid, decomposition, per-rank particles, table kind, shard cut)."""
    p = draw(st.sampled_from([1, 2, 3, 5, 8]))
    grid = Grid2D(draw(st.sampled_from([8, 12, 16])), draw(st.sampled_from([4, 8, 12])))
    scheme = draw(st.sampled_from(["hilbert", "snake", "rowmajor", "morton"]))
    sampler = draw(st.sampled_from([uniform_plasma, gaussian_blob]))
    particles = sampler(grid, draw(st.integers(0, 500)), rng=draw(st.integers(0, 2**16)))
    decomp = CurveBlockDecomposition(grid, p, scheme)
    local = ParticlePartitioner(grid, scheme).initial_partition(particles, p)
    ranks = st.sets(st.integers(0, p - 1))
    # ranks with no ghost entries: keep only particles whose four vertex
    # nodes the rank owns itself
    for r in draw(ranks):
        nodes, _ = grid.cic_vertices_weights(local[r].x, local[r].y)
        interior = (decomp.owner_map[nodes] == r).all(axis=1)
        local[r] = local[r].take(np.flatnonzero(interior))
    for r in draw(ranks):
        local[r] = ParticleArray.empty()
    table = draw(st.sampled_from(["hash", "direct"]))
    cut = draw(st.integers(0, p))
    return grid, decomp, local, table, cut


def _assert_same_bytes(got, want):
    """Nested tuples / lists of arrays and ints, equal down to the bytes."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bytes(a, b)
    else:
        assert got == want


class TestDenseRowOracle:
    @given(case=scatter_cases())
    @settings(max_examples=60, deadline=None)
    def test_flat_scatter_bit_identical(self, case):
        grid, decomp, local, table, cut = case
        p, nnodes, owner = decomp.p, grid.nnodes, decomp.owner_map
        acc_d, entries_d, uniq_d, messages_d = dense_row_scatter(grid, local, owner)

        pic = ParallelPIC(
            VirtualMachine(p, MachineModel.cm5()), grid, decomp, local,
            ghost_table=table,
        )
        acc = pic._accumulate_sources()
        assert np.array_equal(acc, acc_d)
        sent_ids = {
            (dst, src): ids for src in range(p) for dst, ids in pic._ghost_nodes[src].items()
        }
        assert sent_ids.keys() == messages_d.keys()
        for key, ids in sent_ids.items():
            assert np.array_equal(ids, messages_d[key][0])
        # the per-rank ghost tallies: what one table per rank would have counted
        assert np.array_equal(pic.ghost_entries, entries_d)
        assert np.array_equal(pic.ghost_unique, uniq_d)
        assert np.array_equal(pic.ghost_ops, GHOST_TABLES[table].OPS_PER_ENTRY * entries_d)

        # the kernel alone, cut at an arbitrary rank like a two-worker
        # backend's shards: row, tallies and message payloads
        pool = ParticlePool.from_ranks(local)
        cuts = np.array(sorted({0, cut, p}))
        shards = Shards(cuts, pool.offsets[cuts], None, np.zeros((len(cuts) - 1, 3), np.int64))
        args = (grid, pool.array, pool.counts, owner)
        row = np.empty((NCH, nnodes))
        cic, entries, uniq, batch = scatter_segment(*args, row, shards)
        # the (rank, cell) pair path against the per-entry sort it replaced
        msgs = [[(dst, *payload) for dst, payload in outbox.items()] for outbox in batch.to_dicts(p)]
        ref_row = np.empty_like(row)
        _assert_same_bytes(
            (cic, entries, uniq, msgs, row), (*reference_scatter_segment(*args, ref_row), ref_row)
        )
        messages = {(dst, r): (ids, vals) for r, sent in enumerate(msgs) for dst, ids, vals in sent}
        assert np.array_equal(entries, entries_d)
        assert np.array_equal(uniq, uniq_d)
        assert messages.keys() == messages_d.keys()
        for key, (ids, vals) in messages.items():
            assert np.array_equal(ids, messages_d[key][0])
            assert np.array_equal(vals, messages_d[key][1])
        sharded = reduce_rank_rows(row[None], np.zeros((NCH, nnodes)))
        for key in sorted(messages):
            ids, vals = messages[key]
            for c in range(NCH):
                sharded[c] += np.bincount(ids, weights=vals[c], minlength=nnodes)
        assert np.array_equal(sharded, acc_d)


# ----------------------------------------------------------------------
# ghost slots computed on (rank, cell) pairs == np.unique of the entry keys
# ----------------------------------------------------------------------
def _check_ghost_slots(grid, owner, ranks, nodes):
    """``ghost_slots`` of one cell row against the off-rank entries' keys."""
    slots = ghost_slots(grid, owner, ranks, nodes[:, :1].T)
    entry_ranks = np.repeat(ranks, 4)
    flat = nodes.ravel()
    off = owner[flat] != entry_ranks
    # one slot per distinct off-rank (rank, node), numbered by (rank, owner, node)
    stride = int(owner.max()) + 1
    keys, inverse = np.unique(
        ((entry_ranks[off] * stride + owner[flat[off]]) * grid.nnodes + flat[off]),
        return_inverse=True,
    )
    assert np.array_equal((slots.ranks * stride + slots.owners) * grid.nnodes + slots.nodes, keys)
    assert np.array_equal(slots.owners, owner[slots.nodes])
    assert slots.pair_of.shape == (1, len(ranks))
    dest = slots.dest[slots.pair_of[0]].ravel()
    assert np.array_equal(dest >= grid.nnodes, off)
    assert np.array_equal(dest[~off], flat[~off])
    assert np.array_equal(dest[off] - grid.nnodes, inverse)


class TestGhostSlots:
    @given(case=scatter_cases())
    @settings(max_examples=40, deadline=None)
    def test_match_unique_of_entry_keys(self, case):
        grid, decomp, local, _, _ = case
        pool = ParticlePool.from_ranks(local)
        nodes, _ = grid.cic_vertices_weights(pool.array.x, pool.array.y)
        _check_ghost_slots(grid, decomp.owner_map, pool.rank_of_particles(), nodes)

    def test_empty_input(self):
        grid = Grid2D(8, 4)
        owner = CurveBlockDecomposition(grid, 3, "hilbert").owner_map
        empty = np.empty(0, dtype=np.int64)
        slots = ghost_slots(grid, owner, empty, empty[None, :])
        assert slots.ranks.size == slots.owners.size == slots.nodes.size == 0
        assert slots.dest.shape == (0, 4) and slots.pair_of.shape == (1, 0)

    def test_rank_owning_no_nodes(self):
        """Rank 1 owns nothing, so every one of its entries is a ghost."""
        grid = Grid2D(8, 4)
        owner = np.where(np.arange(grid.nnodes) < grid.nnodes // 2, 0, 2)
        parts = uniform_plasma(grid, 300, rng=7)
        nodes, _ = grid.cic_vertices_weights(parts.x, parts.y)
        ranks = np.repeat(np.arange(3), 100)
        _check_ghost_slots(grid, owner, ranks, nodes)
        slots = ghost_slots(grid, owner, ranks, nodes[:, :1].T)
        assert (slots.dest[slots.pair_of[0, 100:200]] >= grid.nnodes).all()


# ----------------------------------------------------------------------
# one bincount per channel over destinations == on-rank / ghost split
# ----------------------------------------------------------------------
def _reference_pair(grid, parts, counts, owner):
    """``scatter_segment`` and its per-entry reference on the same pool."""
    args = (grid, parts, np.asarray(counts, dtype=np.int64), owner)
    row, ref_row = np.full((NCH, grid.nnodes), np.nan), np.full((NCH, grid.nnodes), np.nan)
    return scatter_segment(*args, row), row, reference_scatter_segment(*args, ref_row), ref_row


class TestDepositByDestination:
    """The cases the on-rank / ghost split special-cased, bit for bit."""

    def test_single_rank_has_no_slot(self):
        grid = Grid2D(16, 8)
        parts = gaussian_blob(grid, 400, rng=3)
        owner = np.zeros(grid.nnodes, dtype=np.int64)
        (cic, ent, unq, batch), row, (_, ent_r, unq_r, msgs_r), ref_row = _reference_pair(
            grid, parts, [parts.n], owner
        )
        assert batch.src.size == batch.ids.size == 0 and batch.values.shape == (NCH, 0)
        assert msgs_r == [[]] and not ent.any() and not unq.any()
        _assert_same_bytes((ent, unq, row), (ent_r, unq_r, ref_row))
        _assert_same_bytes(row, accumulate_entries(grid.nnodes, *deposition_entries(grid, parts)))

    def test_every_entry_off_rank_in_a_shard_with_empty_ranks(self):
        """Ranks 1..3 own no node: ranks 1 and 3 hold the particles, ranks
        0 and 2 are empty, nothing is deposited on-rank."""
        grid = Grid2D(16, 8)
        owner = np.where(np.arange(grid.nnodes) % 3 == 0, 0, 4)
        parts = uniform_plasma(grid, 300, rng=9)
        (cic, ent, unq, batch), row, (_, ent_r, unq_r, msgs_r), ref_row = _reference_pair(
            grid, parts, [0, 180, 0, 120], owner
        )
        assert not row.any() and not ref_row.any()
        assert list(ent) == [0, 4 * 180, 0, 4 * 120] and unq[0] == unq[2] == 0
        msgs = [[(dst, *payload) for dst, payload in outbox.items()] for outbox in batch.to_dicts(5)[:4]]
        _assert_same_bytes((ent, unq, msgs), (ent_r, unq_r, msgs_r))
        assert set(batch.src.tolist()) == {1, 3} and set(batch.dst.tolist()) == {0, 4}

    @pytest.mark.parametrize("p", [1, 5])
    def test_one_channel_setup_deposition(self, p):
        """``ParallelYeePIC._distributed_rho``: one channel, particles held
        by the wrong ranks (so most entries are ghosts) and an empty rank."""
        grid = Grid2D(16, 8, lx=8.0, ly=4.0)
        local = ParticlePartitioner(grid, "hilbert").initial_partition(
            gaussian_blob(grid, 700, rng=4), p
        )
        local = local[1:] + [ParticleArray.empty()] if p > 1 else local
        built = []
        for kind in ("looped", "flat"):
            vm = VirtualMachine(p, MachineModel.cm5())
            decomp = CurveBlockDecomposition(grid, p, "hilbert")
            pic = YEE_STEPPERS[kind](vm, grid, decomp, [part.copy() for part in local])
            built.append((vm, pic))
        (vm_ref, ref), (vm, pic) = built
        assert pic.fields.rho.tobytes() == ref.fields.rho.tobytes()
        assert vm.state_dict() == vm_ref.state_dict()
        assert (vm.stats.phase("scatter").total_msgs > 0) == (p > 1)

    def test_zigzag_currents_that_underflow_to_negative_zero(self):
        """Half the charges are subnormal and fast, so some off-rank zigzag
        sums are one negative ulp and their product with ``dx = 0.4``
        underflows to -0.0: a slot they alone touch is dropped (as the
        oracle's nonzero filter drops it) and one a CIC entry keeps alive
        ships +0.0."""
        grid = Grid2D(16, 8, lx=6.4, ly=16.0)
        p, rng = 5, np.random.default_rng(1)
        parts = uniform_plasma(grid, 100, rng=12)  # sparse: some slots see no CIC entry
        parts.w[::2] = 1e-322 * 10 ** rng.uniform(-1, 1, 50)
        parts.ux[::2] = rng.choice([-0.6, 0.6], 50)  # crosses a cell face every other step
        local = ParticlePartitioner(grid, "hilbert").initial_partition(parts, p)
        steppers = []
        for kind in ("looped", "flat"):
            vm = VirtualMachine(p, MachineModel.cm5())
            decomp = CurveBlockDecomposition(grid, p, "hilbert")
            steppers.append(YEE_STEPPERS[kind](vm, grid, decomp, [q.copy() for q in local]))
        oracle, pooled = steppers
        pooled.gather_push()
        pool, x_old, y_old = pooled._pre_push
        negative_zeros = dropped = 0
        for r in range(p):  # the oracle's dense per-rank currents at the nodes of other ranks
            sl, mine = slice(pool.offsets[r], pool.offsets[r + 1]), pool.array
            jx, jy = deposit_current_zigzag(
                grid, x_old[sl], y_old[sl], mine.x[sl], mine.y[sl], (mine.w * mine.q)[sl], pooled.dt
            )
            px, py = (j.ravel() * grid.dx * grid.dy for j in (jx, jy))
            under_cic = np.zeros(grid.nnodes, dtype=bool)
            under_cic[grid.cic_vertices_weights(mine.x[sl], mine.y[sl])[0].ravel()] = True
            underflowed = (decomp.owner_map != r) & (
                ((jx.ravel() < 0) & (px == 0)) | ((jy.ravel() < 0) & (py == 0))
            )
            negative_zeros += underflowed.sum()
            dropped += (underflowed & (px == 0) & (py == 0) & ~under_cic).sum()
        assert negative_zeros > 0 and dropped > 0, "the case under test did not arise"
        pooled.scatter()
        pooled.field_solve()
        oracle.step()
        assert pooled.vm.state_dict() == oracle.vm.state_dict()
        for name in ("rho", "jx", "jy", "jz", "ex", "ey", "bz"):
            assert getattr(pooled.fields, name).tobytes() == getattr(oracle.fields, name).tobytes()


# ----------------------------------------------------------------------
# the seeded merge reads what was received, not what was sent
# ----------------------------------------------------------------------
def _build(engine, workers=0):
    p, grid = 6, Grid2D(24, 16)
    vm = VirtualMachine(p, MachineModel.cm5())
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    local = ParticlePartitioner(grid, "hilbert").initial_partition(
        gaussian_blob(grid, 1200, rng=21), p
    )
    backend = create_backend(workers, grid)
    pic = STEPPERS[engine](vm, grid, decomp, local, backend=backend, smoothing_passes=0)
    vm.install_faults(FaultPlan(events=(FaultEvent(kind="poison", phase="scatter"),)))
    return vm, pic


def test_poisoned_scatter_identical_across_engines():
    """pooled == per-rank oracle == pooled+workers with every scatter message poisoned:
    the NaNs land on the same nodes, the accounting does not move."""
    built = [_build("looped"), _build("flat"), _build("flat", workers=2)]
    try:
        for _, pic in built:
            pic.scatter()
        vm_ref, ref = built[0]
        sources = [ref.fields.rho, ref.fields.jx, ref.fields.jy, ref.fields.jz]
        assert np.isnan(sources[0]).any(), "poison did not reach the deposited charge"
        assert all(np.isfinite(j).all() for j in sources[1:])  # first float only
        for vm, pic in built[1:]:
            got = [pic.fields.rho, pic.fields.jx, pic.fields.jy, pic.fields.jz]
            for a, b in zip(got, sources):
                assert np.array_equal(a, b, equal_nan=True)
            assert vm.elapsed() == vm_ref.elapsed()
            assert vm.ops.as_dict() == vm_ref.ops.as_dict()
            np.testing.assert_array_equal(vm.clocks, vm_ref.clocks)
    finally:
        for _, pic in built:
            if pic.backend is not None:
                pic.backend.close()


# ----------------------------------------------------------------------
# a dense per-rank block cannot come back unnoticed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ghost_table", ["hash", "direct"])
def test_scatter_allocation_is_not_p_times_mesh(ghost_table):
    p, grid = 64, Grid2D(128, 64)
    dense_block = p * NCH * grid.nnodes * 8
    local = ParticlePartitioner(grid, "hilbert").initial_partition(
        gaussian_blob(grid, 2048, rng=5), p
    )
    tracemalloc.start()
    try:
        # construction counts too: p eager direct-address tables are the
        # same O(p * nnodes) pattern
        pic = ParallelPIC(
            VirtualMachine(p, MachineModel.cm5()), grid,
            CurveBlockDecomposition(grid, p, "hilbert"), local, ghost_table=ghost_table,
        )
        pic.scatter()  # builds the pool, warms caches
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        pic.scatter()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < dense_block // 4, (
        f"one scatter allocated {peak - base} B at its peak; a dense "
        f"(p, 4, nnodes) block is {dense_block} B"
    )
    assert base < dense_block // 4, f"stepper holds {base} B after construction + one scatter"


# ----------------------------------------------------------------------
# worker backend: one output row, whatever p and the worker count are
# ----------------------------------------------------------------------
def _cfg(**kwargs):
    base = dict(nx=16, ny=12, nparticles=800, p=6, distribution="irregular",
                policy="dynamic", seed=3)
    base.update(kwargs)
    return SimulationConfig(**base)


@pytest.fixture
def scatter_rows(monkeypatch):
    """Record ``(rows.shape, p, nshards, nworkers)`` of every backend scatter."""
    seen = []
    original = FlatBackend.scatter

    def spy(self, pool, node_owner, *buffers):
        out = original(self, pool, node_owner, *buffers)
        seen.append((out[0].shape, pool.p, len(self._cuts(pool.offsets)) - 1, self.nworkers))
        return out

    monkeypatch.setattr(FlatBackend, "scatter", spy)
    return seen


class TestWorkerRowsBlock:
    def _check(self, seen, nnodes):
        assert seen
        for shape, _, nshards, nworkers in seen:
            assert shape == (1, NCH, nnodes)  # the in-process scatter's
            assert 1 <= nshards <= nworkers

    def test_across_rank_kill_shrink(self, scatter_rows, tmp_path):
        sim = Simulation(_cfg(), workers=2)
        try:
            sim.install_faults(FaultPlan(events=(FaultEvent(kind="kill", rank=2, iteration=3),)))
            result = sim.run(5, checkpoint_every=2, checkpoint_path=tmp_path / "ck.npz")
            assert result.n_recoveries == 1
        finally:
            sim.close()
        self._check(scatter_rows, 16 * 12)
        assert {p for _, p, _, _ in scatter_rows} == {6, 5}

    def test_across_worker_count_resume(self, scatter_rows, tmp_path):
        path = tmp_path / "ck.npz"
        sim = Simulation(_cfg(), workers=2)
        try:
            sim.run(2, checkpoint_every=2, checkpoint_path=path)
        finally:
            sim.close()
        resumed = Simulation.from_checkpoint(path, workers=3)
        try:
            resumed.run(2)
        finally:
            resumed.close()
        self._check(scatter_rows, 16 * 12)
        assert {(n, w) for _, _, n, w in scatter_rows} == {(2, 2), (3, 3)}


# ----------------------------------------------------------------------
# kernel outputs outlive a step: a warm step is not page-faulted in
# ----------------------------------------------------------------------
_FAULTS_PER_STEP = """
import resource, sys
from repro import native
from repro.pic import Simulation, SimulationConfig
if sys.argv[2] == "numpy":
    native._loaded = (None, native.NativeStatus(False, "forced"))
config = SimulationConfig(nx=128, ny=64, nparticles=32768, p=32, seed=3, distribution="irregular",
                          scheme="hilbert", policy="dynamic", vth=0.08, kernel=sys.argv[3])
with Simulation(config, workers=int(sys.argv[1])) as sim:
    sim.run(40)  # three redistributions: the heap of a running Fig 17 job
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        sim.pic.step()
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator behaviour")
@pytest.mark.parametrize(
    "kernel, workers", [("era", 0), ("era", 2), ("modern", 0)], ids=["0", "2", "modern-0"]
)
def test_warm_steps_are_not_page_faulted_in(kernel, workers):
    """20 warm steps at the Fig 17 size take at most 50 minor page faults
    each.  Fresh 1-2 MB CIC and interpolation outputs per step cost ~860
    here in-process and ~750 under two shard threads; the stepper's kept
    buffers, the compiled ``ghost_slots`` and its scratch leave 0-15.  The
    modern stepper keeps its stencil cells and pre-push positions, and its
    two passes are the era's.  A fresh interpreter, because what
    faults depends on the allocator's history, which the rest of the
    suite would set."""
    path = "compiled" if native.kernels() is not None else "numpy"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_STEP, str(workers), path, kernel],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )  # fmt: skip
    per_step = float(done.stdout.split()[-1])
    assert per_step <= 50, f"{per_step} minor faults per warm step ({path} kernels)"
