"""The compiled PIC kernels reproduce their NumPy bodies byte for byte.

``repro.native`` puts ten C loops behind ``Grid2D.cic_vertices_weights``,
the modern stepper's CIC deposit, ``scatter_segment``,
``gather_push_slice`` and ``boris_push``, ``ghost_slots``,
``MaxwellSolver.step``, one pass of ``binomial_smooth``,
``staggered_gather``, ``zigzag_entries`` and
``deposit_zigzag_entries``.  The NumPy bodies stay as fallback and oracle, and the
contract is equality *by bytes* — on ordinary inputs through the C loop
(asserted: a comparison that silently took the fallback proves nothing),
on exceptional ones through the fallback the C loop asks for, with the
warnings and errors NumPy raises.  The loader may fail in many ways and
each must end in the NumPy bodies, a reason, and the same results.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.machine import FaultEvent, FaultPlan
from repro.mesh import CurveBlockDecomposition, FieldState, Grid2D
from repro.parallel_exec.kernels import (
    deposit_numpy,
    gather_push_numpy,
    gather_push_slice,
    scatter_numpy,
    scatter_segment,
)
from repro.particles import ParticleArray
from repro.pic import MaxwellSolver, Simulation, SimulationConfig
from repro.pic.deposition import ghost_slots, ghost_slots_numpy
from repro.pic.interpolation import gather_from_node_values, interpolate_numpy
from repro.pic.parallel_yee import staggered_gather, staggered_gather_numpy
from repro.pic.push import boris_push, push_numpy
from repro.pic.smoothing import binomial_smooth, binomial_smooth_numpy
from repro.pic.zigzag import (
    JX_VERTICES,
    JY_VERTICES,
    deposit_zigzag_entries,
    deposit_zigzag_entries_numpy,
    zigzag_entries,
    zigzag_entries_numpy,
)
from repro.util.errors import SimulationIntegrityError
from tests import vectorization_guard

GRIDS = [Grid2D(32, 16), Grid2D(16, 8, lx=10.0, ly=3.0), Grid2D(7, 5, lx=1.0, ly=2.5)]
SIZES = [0, 1, 7, 5000]
PUSHED = ("x", "y", "ux", "uy", "uz")
PLANES = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


@pytest.fixture(scope="module")
def compiled():
    """The loaded library itself — whatever ``--numpy-kernels`` forces on
    the functions that use it."""
    found, status = native.load()
    if not status.active:  # CI asserts status().active after tier-1, so this cannot hide there
        pytest.skip(f"no compiled kernels on this host: {status.reason}")
    return found


def _cic_numpy(grid, x, y):
    return grid.cic_from_axes(grid.cic_axis(x, 0), grid.cic_axis(y, 1))


def _particles(grid, n, seed, charge_scale=1.0):
    """Random particles; the first five sit at 0, ``lx``, ``-1e-18``,
    ``-0.0`` and ``1e8 * lx`` (and the y likewise, rotated)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2 * grid.lx, 3 * grid.lx, n)
    y = rng.uniform(-2 * grid.ly, 3 * grid.ly, n)
    edge = np.array([0.0, 1.0, -1e-18, -0.0, 1e8])
    x[:5] = (edge * [1, grid.lx, 1, 1, grid.lx])[:n]
    y[:5] = np.roll(edge * [1, grid.ly, 1, 1, grid.ly], 2)[:n]
    u = rng.normal(0.0, 1.5, (3, n))
    q = rng.choice([-1.0, 1.0], n) * charge_scale
    mass, weight = rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 2.0, n)
    return ParticleArray(x, y, *u, q, mass, weight, np.arange(n))


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _fields(grid, seed):
    """Random E, B, J and rho over ``grid`` with signed zeros among them,
    each plane of a different magnitude: ten rows of one block, as a
    checkpoint lays them out."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-3, 3, (10, 1, 1))
    planes = rng.normal(0.0, 1.0, (10, *grid.shape)) * magnitudes
    flat = planes.reshape(10, -1)
    flat[:, rng.integers(0, grid.nnodes, 4)] = np.array([0.0, -0.0, -0.0, 0.0])
    return FieldState(*planes)


def _planes(fields):
    return [getattr(fields, name) for name in PLANES]


cases = st.tuples(st.sampled_from(GRIDS), st.sampled_from(SIZES), st.integers(0, 2**31))
#: the modern stepper's kernels: every vector remainder of the values loop,
#: and more particles than one staged chunk holds
modern_cases = st.tuples(
    st.sampled_from(GRIDS), st.sampled_from([0, 1, 17, 257]), st.integers(0, 2**31)
)


def _on_faces(grid, n, seed):
    """``_particles``' positions, a third of the others moved onto cell
    faces and half faces (the staggered stencils' and the relay points'
    boundaries), some of them negative or beyond the box."""
    parts = _particles(grid, n, seed)
    rng = np.random.default_rng(seed + 1)
    for coords, nc, d in ((parts.x, grid.nx, grid.dx), (parts.y, grid.ny, grid.dy)):
        face = rng.random(n) < 1 / 3
        face[:5] = False
        coords[face] = rng.integers(-4 * nc, 6 * nc, face.sum()) * (0.5 * d)
    return parts


def _segments(grid, n, seed):
    """Zigzag motion segments ``(x_old, y_old, x_new, y_new, charge)``:
    starts from :func:`_on_faces`, moves under a cell; the first four are
    the longest ones ``np.mod(move + l / 2, l)`` resolves, both signs, from
    +0.0 and -0.0; a fifth of the ends lie across the periodic seam; some
    charges are zero."""
    parts = _on_faces(grid, n, seed)
    rng = np.random.default_rng(seed + 2)
    longest = np.subtract([grid.dx, grid.dy], np.spacing([grid.lx, grid.ly]))[:, None]
    moves = rng.uniform(-0.99, 0.99, (2, n)) * longest
    x_old, y_old = parts.x, parts.y
    first = min(n, 4)
    x_old[:first], y_old[:first] = [0.0, -0.0, 0.0, -0.0][:first], [-0.0, 0.0, 0.0, -0.0][:first]
    moves[:, :first] = (longest * [[1, -1, 1, -1], [1, 1, -1, -1]])[:, :first]
    x_new, y_new = x_old + moves[0], y_old + moves[1]
    seam = rng.random(n) < 0.2
    seam[:first] = False
    x_new[seam] += rng.choice([-grid.lx, grid.lx], seam.sum())
    y_new[seam] -= grid.ly
    charge = parts.w * parts.q
    charge[rng.random(n) < 0.1] = 0.0
    return x_old, y_old, x_new, y_new, charge


def _node_values(grid, ncomp, seed):
    """``(ncomp, nnodes)`` values of different magnitudes per row, with
    signed zeros among them."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(ncomp, grid.nnodes)) * 10.0 ** rng.uniform(-8, 8, (ncomp, 1))
    values[:, rng.integers(0, grid.nnodes, 6)] = np.array([0.0, -0.0] * 3)
    return values


#: the vertex tables of the jx and jy lists, as ``deposit_zigzag_entries`` passes them
VERTICES = (JX_VERTICES, JY_VERTICES)


def _zigzag_slots(grid, entries, p, seed):
    """Ghost slots over the two sub-segment cell rows of ``entries`` and a
    random third row, the particles cut into ``p`` rank segments."""
    n = entries[0].shape[1]
    rng = np.random.default_rng(seed)
    cells = np.stack((entries[0][0], entries[0][2], rng.integers(0, grid.ncells, n)))
    counts = np.diff(np.concatenate(([0], np.sort(rng.integers(0, n + 1, p - 1)), [n])))
    owner = CurveBlockDecomposition(grid, p, "hilbert").owner_map
    return ghost_slots_numpy(grid, owner, np.repeat(np.arange(p), counts), cells)


# ----------------------------------------------------------------------
# each entry point against its NumPy body
# ----------------------------------------------------------------------
class TestBytes:
    @settings(max_examples=40, deadline=None)
    @given(cases)
    def test_cic(self, compiled, case):
        grid, n, seed = case
        parts = _particles(grid, n, seed)
        got = compiled.cic(grid, parts.x, parts.y)
        assert got is not None
        _same(got, _cic_numpy(grid, parts.x, parts.y))

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([1, 4]), st.sampled_from([1.0, 1e-310, 3e-320]))
    def test_deposit(self, compiled, case, p, charge_scale):
        """Every shard of a ``p``-rank run (``p`` = 1: no ghost slot;
        the later shards start at ``r0 > 0``), also with subnormal charges."""
        grid, n, seed = case
        parts = _particles(grid, n, seed, charge_scale)
        vertices = compiled.cic(grid, parts.x, parts.y)
        owner = CurveBlockDecomposition(grid, p, "hilbert").owner_map
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, n + 1, p - 1))
        counts = np.diff(np.concatenate(([0], cuts, [n])))
        for r0 in range(p):  # one-rank shards, so r0 runs over 0..p-1
            lo = int(counts[:r0].sum())
            shard = parts.slice_view(lo, lo + int(counts[r0]))
            shard_vertices = tuple(v[lo : lo + shard.n] for v in vertices)
            ranks = np.zeros(shard.n, dtype=np.int64)
            slots = ghost_slots(grid, owner, ranks, shard_vertices[0][:, :1].T, r0)
            assert p > 1 or slots.nodes.size == 0
            args = (slots.dest, slots.pair_of[0])
            acc, want_acc = np.empty((2, 4, grid.nnodes))
            summed = compiled.deposit(shard, shard_vertices[1], *args, acc, slots.nodes.size)
            assert summed is not None
            want = deposit_numpy(grid, shard, shard_vertices, *args, want_acc, slots.nodes.size)
            _same((acc, summed), (want_acc, want))

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([1e-8, 1.0, 1e8]))
    def test_interpolate(self, compiled, case, scale):
        """The gather + push interpolates as ``interpolate_numpy`` does: the
        six planes of different magnitudes, signed zeros among them."""
        grid, n, seed = case
        planes = tuple((_node_values(grid, 6, seed) * scale).reshape(6, *grid.shape))
        got, want = _particles(grid, n, seed), _particles(grid, n, seed)
        assert compiled.gather_push(grid, got, planes, 0.3) == n
        nodes, weights = _cic_numpy(grid, want.x, want.y)
        eb = interpolate_numpy(np.stack([a.ravel() for a in planes], axis=1), nodes, weights)
        push_numpy(grid, want, eb[:3], eb[3:], 0.3)
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([1, 4]), st.sampled_from([1.0, 1e-310]))
    def test_scatter(self, compiled, case, p, charge_scale):
        """The whole pool from ``r0 = 0`` and every one-rank shard, as the
        shard threads call it, also with subnormal charges: the deposited
        row, the slot sums and the tallies of ``scatter_numpy``."""
        grid, n, seed = case
        parts = _particles(grid, n, seed, charge_scale)
        owner = CurveBlockDecomposition(grid, p, "hilbert").owner_map
        rng = np.random.default_rng(seed)
        counts = np.diff(np.concatenate(([0], np.sort(rng.integers(0, n + 1, p - 1)), [n])))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        calls = [(parts, counts, 0)] + [
            (parts.slice_view(offsets[r], offsets[r + 1]), counts[r : r + 1], r) for r in range(p)
        ]
        for shard, shard_counts, r0 in calls:
            acc, want_acc = np.full((2, 4, grid.nnodes), np.nan)
            got = compiled.scatter(grid, shard, shard_counts, r0, owner, acc)
            assert got is not None
            want = scatter_numpy(grid, shard, shard_counts, r0, owner, want_acc)
            _same((*got, acc), (*want, want_acc))

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([0.05, 0.5, 7.0]))
    def test_gather_push(self, compiled, case, dt):
        grid, n, seed = case
        planes = tuple(_planes(_fields(grid, seed))[:6])
        got, want = _particles(grid, n, seed), _particles(grid, n, seed)
        assert compiled.gather_push(grid, got, planes, dt) == n
        gather_push_numpy(grid, want, planes, dt)
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])
        assert np.all((got.x >= 0) & (got.x < grid.lx) & (got.y >= 0) & (got.y < grid.ly))

    @settings(max_examples=60, deadline=None)
    @given(
        cases,
        st.sampled_from([1, 3, 4]),
        st.sampled_from([1, 2, 5]),
        st.sampled_from(["hilbert", "all_on_rank", "all_off_rank"]),
    )
    def test_ghost_slots(self, compiled, case, k, p, owned):
        """``k`` cell rows (the era scatter's 1, the modern scatter's 3 and
        gather's 4) over ``p`` ranks, some empty, with the grid's edge and
        wrap cells among them: the whole pool from ``r0 = 0`` and every
        one-rank shard ``r0 = 0..p-1``, as the shard threads call it."""
        grid, n, seed = case
        rng = np.random.default_rng(seed)
        cells = rng.integers(0, grid.ncells, (k, n))
        corners = np.array([0, grid.nx - 1, grid.ncells - grid.nx, grid.ncells - 1])
        cells[:, : min(n, 4)] = corners[: min(n, 4)]  # the wrap cells
        counts = np.diff(np.concatenate(([0], np.sort(rng.integers(0, n + 1, p - 1)), [n])))
        owner = {
            "hilbert": CurveBlockDecomposition(grid, p, "hilbert").owner_map,
            "all_on_rank": np.zeros(grid.nnodes, dtype=np.int64),  # rank 0 owns every node
            "all_off_rank": np.full(grid.nnodes, p, dtype=np.int64),  # no depositing rank does
        }[owned]
        calls = [(np.repeat(np.arange(p), counts), cells, 0)]
        for r0 in range(p):  # one-rank shards: local rank 0 is global rank r0
            lo, hi = counts[:r0].sum(), counts[: r0 + 1].sum()
            calls.append((np.zeros(hi - lo, dtype=np.int64), cells[:, lo:hi].copy(), r0))
        for ranks, rows, r0 in calls:
            got = compiled.ghost_slots(grid, owner, ranks, rows, r0)
            assert got is not None
            want = ghost_slots_numpy(grid, owner, ranks, rows, r0)
            _same(got, want)
            if owned == "all_off_rank" or (owned == "all_on_rank" and r0 > 0):
                assert (want.dest >= grid.nnodes).all()
            elif owned == "all_on_rank" and (ranks == 0).all():
                assert want.nodes.size == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(GRIDS),
        st.integers(1, 3),
        st.lists(st.integers(0, 40), min_size=1, max_size=6),
        st.integers(0, 3),
        st.sampled_from(["own_cells", "random"]),
        st.sampled_from(["hilbert", "all_off_rank"]),
        st.integers(0, 2**31),
    )
    def test_ghost_slots_sizes_its_outputs_in_one_call(
        self, compiled, grid, k, counts, r0, cells_kind, owned, seed
    ):
        """One pass into kept blocks sized before it, fresh ones here: empty
        ranks, ``r0 > 0``, one to three cell rows, and the worst cases for
        that sizing -- every particle in a cell of its own (as many pairs
        as entries) and every vertex off-rank (four slots a pair)."""
        fresh = type(compiled)(compiled._lib)
        rng = np.random.default_rng(seed)
        n = sum(counts)
        ranks = np.repeat(np.arange(len(counts)), counts)
        if cells_kind == "own_cells":
            cells = rng.permutation(np.resize(np.arange(grid.ncells), k * n)).reshape(k, n)
        else:
            cells = rng.integers(0, grid.ncells, (k, n))
        owner = {
            "hilbert": CurveBlockDecomposition(grid, len(counts) + r0, "hilbert").owner_map,
            "all_off_rank": np.full(grid.nnodes, len(counts) + r0, dtype=np.int64),
        }[owned]
        got = fresh.ghost_slots(grid, owner, ranks, cells, r0)
        assert got is not None
        want = ghost_slots_numpy(grid, owner, ranks, cells, r0)
        _same(got, want)
        if owned == "all_off_rank":
            assert want.nodes.size == len(np.unique(want.dest)) and (want.dest >= grid.nnodes).all()
        acc, want_acc = np.empty((2, 4, grid.nnodes))
        parts = _particles(grid, n, seed)
        counts = np.array(counts, dtype=np.int64)
        got = fresh.scatter(grid, parts, counts, r0, owner, acc)
        assert got is not None
        _same((*got, acc), (*scatter_numpy(grid, parts, counts, r0, owner, want_acc), want_acc))

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([0.05, 0.5, 7.0]))
    def test_boris_push(self, compiled, case, dt):
        grid, n, seed = case
        rng = np.random.default_rng(seed)
        got, want = _particles(grid, n, seed), _particles(grid, n, seed)
        e, b = rng.normal(0.0, 2.0, (2, 3, n))
        e[:, ::5], b[:, ::7] = 0.0, -0.0
        assert compiled.boris_push(grid, got, e, b, dt) == n
        push_numpy(grid, want, e, b, dt)
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])
        assert np.all((got.x >= 0) & (got.x < grid.lx) & (got.y >= 0) & (got.y < grid.ly))

    @pytest.mark.parametrize("n", [*range(1, 18), 257])
    def test_boris_push_in_every_lane(self, compiled, n):
        """Lengths that leave every vector remainder, with a position out of
        the box (so the wrap pass's slow path) in each lane in turn."""
        grid = GRIDS[1]
        outside = [-1e-18, 3.5 * grid.lx, -2.25 * grid.lx, 1e8 * grid.lx, -0.0]
        rng = np.random.default_rng(n)
        e, b = rng.normal(0.0, 2.0, (2, 3, n))
        for lane in range(n):
            got = _particles(grid, n, lane)
            got.x[:] = rng.uniform(0.0, grid.lx, n)
            got.y[:] = rng.uniform(0.0, grid.ly, n)
            got.x[lane] = outside[lane % len(outside)]
            got.y[(lane + 1) % n] = outside[(lane + 2) % len(outside)] * grid.ly / grid.lx
            want = got.copy()
            assert compiled.boris_push(grid, got, e, b, 0.3) == n
            push_numpy(grid, want, e, b, 0.3)
            _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 12),
        st.integers(3, 12),
        st.sampled_from([(1.0, 1.0), (10.0, 3.0), (0.7, 2.5)]),
        st.sampled_from([0.05, 0.5, 0.99]),
        st.booleans(),
        st.sampled_from([0, 1, 2]),
        st.integers(0, 2**31),
    )
    def test_field_step(self, compiled, nx, ny, box, cfl, subtract, passes, seed):
        """Non-square grids down to 3x3, signed zeros, raw or mean-free
        currents, zero to two Marder passes, ``dt`` up to the CFL limit:
        E and B stay the same arrays and hold ``_step_numpy``'s bytes."""
        grid = Grid2D(nx, ny, lx=box[0], ly=box[1])
        solver = MaxwellSolver(grid, subtract_mean_current=subtract, marder_passes=passes)
        dt = cfl * solver.cfl_limit()
        got, want = _fields(grid, seed), _fields(grid, seed)
        arrays = _planes(got)
        assert compiled.field_step(solver, got, dt)
        solver._step_numpy(want, dt)
        assert all(a is b for a, b in zip(_planes(got), arrays))
        _same(_planes(got), _planes(want))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 12), st.integers(3, 12), st.integers(0, 2**31))
    def test_smooth(self, compiled, nx, ny, seed):
        a = _fields(Grid2D(nx, ny), seed).rho
        got = compiled.smooth(a)
        assert got is not None and got is not a
        _same((got,), (binomial_smooth_numpy(a),))
        _same((binomial_smooth(a, 3),), (binomial_smooth_numpy(a, 3),))

    @settings(max_examples=40, deadline=None)
    @given(modern_cases)
    def test_yee_gather(self, compiled, case):
        grid, n, seed = case
        parts = _on_faces(grid, n, seed)
        node_values = _node_values(grid, 6, seed)
        got = np.full((6, n), np.nan), np.full((4, n), -1, dtype=np.int64)
        want = np.empty((6, n)), np.empty((4, n), dtype=np.int64)
        assert compiled.yee_gather(grid, parts.x, parts.y, node_values, *got)
        staggered_gather_numpy(grid, parts.x, parts.y, node_values, *want)
        _same(got, want)

    @settings(max_examples=60, deadline=None)
    @given(modern_cases, st.sampled_from([0.05, 0.6, 3.0]))
    def test_zigzag(self, compiled, case, dt):
        grid, n, seed = case
        args = (grid, *_segments(grid, n, seed), dt)
        got = compiled.zigzag(*args)
        assert got is not None
        _same(got, zigzag_entries_numpy(*args))

    @settings(max_examples=40, deadline=None)
    @given(modern_cases, st.sampled_from([1, 3]), st.sampled_from([1.0, 1e-310]))
    def test_zigzag_bin(self, compiled, case, p, charge_scale):
        """Both components of real zigzag entries (some charges zero, or all
        subnormal) by the ghost slots of their cells over ``p`` ranks."""
        grid, n, seed = case
        x_old, y_old, x_new, y_new, charge = _segments(grid, n, seed)
        entries = zigzag_entries_numpy(grid, x_old, y_old, x_new, y_new, charge * charge_scale, 0.6)
        slots = _zigzag_slots(grid, entries, p, seed)
        values = np.stack((entries[1].ravel(), entries[3].ravel()))
        got = np.full((2, grid.nnodes), np.nan), np.full((2, slots.nodes.size), np.nan)
        want = np.empty((2, grid.nnodes)), np.empty((2, slots.nodes.size))
        assert compiled.zigzag_bin(values, VERTICES, slots.dest, slots.pair_of, *got)
        deposit_zigzag_entries_numpy(values, slots.dest, slots.pair_of, *want)
        _same(got, want)


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_outputs_land_in_the_callers_buffers(path, request):
    """``out=`` on the CIC and the zigzag entries (the modern stepper's
    kept buffers, sliced from larger blocks): the very buffers come back
    holding the bytes of fresh outputs, on either kernel path."""
    if path == "numpy":
        request.getfixturevalue("numpy_kernels")
    grid, n = GRIDS[1], 300
    parts = _particles(grid, n, 9)
    fresh = grid.cic_vertices_weights(parts.x, parts.y)
    buffers = (np.full((n + 5, 4), -7, dtype=np.int64)[:n], np.full((n + 5, 4), np.nan)[:n])
    got = grid.cic_vertices_weights(parts.x, parts.y, out=buffers)
    assert got[0] is buffers[0] and got[1] is buffers[1]
    _same(got, fresh)
    segments = (grid, *_segments(grid, n, 9), 0.4)
    kinds = [(-7, np.int64), (np.nan, np.float64)] * 2
    blocks = [np.full((4, n), fill, dtype=dtype) for fill, dtype in kinds]
    got = zigzag_entries(*segments, out=blocks)
    assert all(np.shares_memory(g, b) for g, b in zip(got, blocks))
    _same(got, zigzag_entries(*segments))


# ----------------------------------------------------------------------
# exceptional inputs: the C loop declines, NumPy answers as it always did
# ----------------------------------------------------------------------
class TestDeclined:
    grid = GRIDS[1]

    def test_bad_node_ids_raise_numpys_index_error(self, compiled):
        """Node ids outside the grid reach only the NumPy interpolation, which
        raises (or counts from the end) as it always did; an owner map that
        does not cover the grid the scatter declines, and NumPy raises."""
        parts = _particles(self.grid, 50, 0)
        nodes, weights = compiled.cic(self.grid, parts.x, parts.y)
        values = np.ones((3, self.grid.nnodes))
        for bad in (self.grid.nnodes, 2**62, -self.grid.nnodes - 1):
            broken = nodes.copy()
            broken[17, 2] = bad
            with pytest.raises(IndexError):
                gather_from_node_values(values, broken, weights)
        nodes[3, 1] = -1  # NumPy counts from the end
        ramp = values * np.arange(self.grid.nnodes)
        want = interpolate_numpy(np.ascontiguousarray(ramp.T), nodes, weights)
        _same((gather_from_node_values(ramp, nodes, weights),), (want,))
        counts = np.array([20, 30], dtype=np.int64)
        short = CurveBlockDecomposition(self.grid, 2, "hilbert").owner_map[:-1]
        acc = np.empty((4, self.grid.nnodes))
        assert compiled.scatter(self.grid, parts, counts, 0, short, acc) is None
        with pytest.raises(IndexError):
            scatter_segment(self.grid, parts, counts, 0, short, acc)

    def test_bad_destinations_raise_what_numpy_raises(self, compiled):
        parts = _particles(self.grid, 50, 1)
        vertices = compiled.cic(self.grid, parts.x, parts.y)
        dest = self.grid.cell_vertices(np.arange(self.grid.ncells))
        acc = np.random.default_rng(1).normal(size=(4, self.grid.nnodes))
        before = acc.copy()  # the caller's row: a rejected deposit must not have zeroed it
        beyond, from_the_end = np.full(50, self.grid.ncells), np.full(50, -1)
        for pair_of in (beyond, from_the_end):  # the second is NumPy's to wrap around
            assert compiled.deposit(parts, vertices[1], dest, pair_of, acc, 0) is None
        with pytest.raises(IndexError):
            deposit_numpy(self.grid, parts, vertices, dest, beyond, acc, 0)
        broken, cells = dest.copy(), vertices[0][:, 0].copy()
        broken[0, 0] = -5
        assert compiled.deposit(parts, vertices[1], broken, cells, acc, 0) is None
        with pytest.raises(ValueError):
            deposit_numpy(self.grid, parts, vertices, broken, cells, acc, 0)
        _same((acc,), (before,))

    def test_ghost_slots_declines_to_the_numpy_body(self, compiled):
        """A cell outside the grid is NumPy's ``IndexError``; a negative owner,
        descending or negative ranks, non-contiguous or non-int64 cells take
        the NumPy body, which answers as it always did."""
        grid = self.grid
        owner = CurveBlockDecomposition(grid, 3, "hilbert").owner_map
        ranks = np.repeat(np.arange(3), [20, 0, 30])
        cells = np.random.default_rng(7).integers(0, grid.ncells, (2, 50))
        assert compiled.ghost_slots(grid, owner, ranks, cells, 0) is not None
        for bad in (grid.ncells, -1, 2**40):
            broken = cells.copy()
            broken[1, 33] = bad
            assert compiled.ghost_slots(grid, owner, ranks, broken, 0) is None
            with pytest.raises(IndexError):
                ghost_slots(grid, owner, ranks, broken)
        negative_owner = owner.copy()
        negative_owner[5] = -1
        strided = np.random.default_rng(8).integers(0, grid.ncells, (2, 100))[:, ::2]
        declined = [
            (negative_owner, ranks, cells),
            (owner, ranks[::-1].copy(), cells),
            (owner, ranks - 1, cells),
            (owner, ranks, strided),
            (owner, ranks, cells.astype(np.int32)),
            (owner.astype(np.int32), ranks, cells),
        ]
        for args in declined:
            assert compiled.ghost_slots(grid, *args, 0) is None
            _same(ghost_slots(grid, *args), ghost_slots_numpy(grid, *args))

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_warn_as_numpy_does(self, compiled, poison):
        parts = _particles(self.grid, 20, 2)
        parts.y[11] = poison
        assert compiled.cic(self.grid, parts.x, parts.y) is None
        with warnings.catch_warnings(record=True) as numpy_said:
            warnings.simplefilter("always")
            want = _cic_numpy(self.grid, parts.x, parts.y)
        with warnings.catch_warnings(record=True) as we_said:
            warnings.simplefilter("always")
            got = self.grid.cic_vertices_weights(parts.x, parts.y)
        assert [str(w.message) for w in we_said] == [str(w.message) for w in numpy_said] != []
        _same(got, want)

    @pytest.mark.parametrize(
        "column, value", [("ux", np.nan), ("x", np.inf), ("uz", 1e200), ("q", np.inf)]
    )
    def test_push_declines_before_writing(self, compiled, column, value):
        """Non-finite state, and an overflow whose results are finite again
        (NumPy warns about the square): nothing may have been written."""
        got, want = _particles(self.grid, 40, 3), _particles(self.grid, 40, 3)
        for parts in (got, want):
            getattr(parts, column)[9] = value
        before = got.copy()
        e, b = np.random.default_rng(3).normal(size=(2, 3, 40))
        assert not compiled.boris_push(self.grid, got, e, b, 0.3)
        _same([getattr(got, c) for c in PUSHED], [getattr(before, c) for c in PUSHED])
        with warnings.catch_warnings(record=True) as numpy_said:
            warnings.simplefilter("always")
            push_numpy(self.grid, want, e, b, 0.3)
        with warnings.catch_warnings(record=True) as we_said:
            warnings.simplefilter("always")
            boris_push(self.grid, got, e, b, 0.3)
        assert [str(w.message) for w in we_said] == [str(w.message) for w in numpy_said]
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    def test_non_finite_fields_and_momenta_take_the_numpy_floats(self, compiled):
        """Poisoned E and B at the particles: the gather + push writes
        nothing, and the public pass answers and warns as the NumPy body."""
        parts = _particles(self.grid, 30, 4)
        nodes, weights = compiled.cic(self.grid, parts.x, parts.y)
        planes = np.random.default_rng(4).normal(size=(6, *self.grid.shape))
        planes[2].flat[nodes[5, 1]] = np.nan
        planes[4].flat[nodes[8, 0]] = -np.inf
        planes = tuple(planes)
        got, want = parts.copy(), parts.copy()
        assert compiled.gather_push(self.grid, got, planes, 0.3) == 0
        _same([getattr(got, c) for c in PUSHED], [getattr(parts, c) for c in PUSHED])
        _, numpy_said = self._warned(lambda: gather_push_numpy(self.grid, want, planes, 0.3))
        _, we_said = self._warned(lambda: gather_push_slice(self.grid, got, planes, 0.3))
        assert we_said == numpy_said
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])
        parts.ux[7] = 1e200  # ux**2 overflows: NumPy warns, so must we
        dest = self.grid.cell_vertices(np.arange(self.grid.ncells))
        acc = np.empty((4, self.grid.nnodes))
        assert compiled.deposit(parts, weights, dest, nodes[:, 0].copy(), acc, 0) is None
        counts = np.array([30], dtype=np.int64)
        owner = np.zeros(self.grid.nnodes, dtype=np.int64)
        assert compiled.scatter(self.grid, parts, counts, 0, owner, acc) is None

    @pytest.mark.parametrize("chunk", [0, 1, 3])
    def test_push_stops_at_the_first_flagged_chunk(self, compiled, chunk):
        """The push commits whole clean chunks of 256 particles in order and
        stops at the first that is not: the particles before it hold the
        NumPy body's bytes, the rest are untouched, and the public function
        then answers, and warns, as one NumPy pass over all of them."""
        n = 4 * 256 + 17
        got, want = _particles(self.grid, n, 8), _particles(self.grid, n, 8)
        for parts in (got, want):
            parts.uz[256 * chunk + 100] = 1e200  # its square overflows
        before = got.copy()
        e, b = np.random.default_rng(8).normal(size=(2, 3, n))
        assert compiled.boris_push(self.grid, got, e, b, 0.3) == 256 * chunk
        clean = before.copy()
        self._warned(lambda: push_numpy(self.grid, clean, e, b, 0.3))
        head, tail = slice(0, 256 * chunk), slice(256 * chunk, n)
        _same([getattr(got, c)[head] for c in PUSHED], [getattr(clean, c)[head] for c in PUSHED])
        _same([getattr(got, c)[tail] for c in PUSHED], [getattr(before, c)[tail] for c in PUSHED])
        got = before
        _, numpy_said = self._warned(lambda: push_numpy(self.grid, want, e, b, 0.3))
        _, we_said = self._warned(lambda: boris_push(self.grid, got, e, b, 0.3))
        assert we_said == numpy_said != []
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    def test_views_and_other_dtypes_are_not_copied_in(self, compiled):
        """Strided or float32 arguments take the NumPy body — never a
        silent copy-in / copy-out of the in-place push."""
        parts = _particles(self.grid, 64, 5)
        strided = ParticleArray.from_block(parts.block[:, ::2])
        assert compiled.cic(self.grid, strided.x, strided.y) is None
        assert compiled.cic(self.grid, parts.x.astype(np.float32), parts.y) is None
        assert compiled.cic(self.grid, list(parts.x), list(parts.y)) is None
        e, b = np.random.default_rng(5).normal(size=(2, 3, strided.n))
        assert not compiled.boris_push(self.grid, strided, e, b, 0.2)
        full = np.random.default_rng(5).normal(size=(6, parts.n))
        assert not compiled.boris_push(self.grid, parts, full[::2], full[1::2], 0.2)
        planes = tuple(_planes(_fields(self.grid, 5))[:6])
        assert compiled.gather_push(self.grid, strided, planes, 0.2) == 0
        assert compiled.gather_push(self.grid, parts, (*planes[:5], planes[5].T), 0.2) == 0
        assert compiled.gather_push(self.grid, parts, planes[:5], 0.2) == 0
        float32 = tuple(a.astype(np.float32) for a in planes)
        assert compiled.gather_push(self.grid, parts, float32, 0.2) == 0
        assert compiled.boris_push(self.grid, parts, parts.block[:3], full[3:], 0.2) == 0
        reference = strided.copy()
        boris_push(self.grid, strided, e, b, 0.2)  # the public function still serves the view
        push_numpy(self.grid, reference, e, b, 0.2)
        _same([getattr(strided, c) for c in PUSHED], [getattr(reference, c) for c in PUSHED])
        _same([parts.x[::2], parts.ux[::2]], [reference.x, reference.ux])

    @pytest.mark.parametrize(
        "plane, value",
        [(name, v) for name in ("ex", "bz", "jy", "rho") for v in (np.nan, np.inf, -np.inf)]
        + [("ex", "overflow"), ("rho", "overflow")],
    )
    def test_non_finite_fields_warn_as_numpy_does(self, compiled, plane, value):
        """A poisoned plane, or one whose differences overflow: the field
        step and the smoothing decline, E and B are the same arrays with the
        same bytes until the NumPy body runs, which warns and answers as
        always."""
        solver = MaxwellSolver(self.grid)
        got, want = _fields(self.grid, 6), _fields(self.grid, 6)
        for fields in (got, want):
            if value == "overflow":  # a[7] - a[5] does, in the row's centred difference
                getattr(fields, plane)[3, [5, 7]] = 1.7e308, -1.7e308
            else:
                getattr(fields, plane)[3, 5] = value
        arrays, before = _planes(got), [a.copy() for a in _planes(got)]
        assert not compiled.field_step(solver, got, 0.1)
        assert all(a is b for a, b in zip(_planes(got), arrays))
        _same(_planes(got), before)
        with warnings.catch_warnings(record=True) as numpy_said:
            warnings.simplefilter("always")
            solver._step_numpy(want, 0.1)
        with warnings.catch_warnings(record=True) as we_said:
            warnings.simplefilter("always")
            solver.step(got, 0.1)
        assert [str(w.message) for w in we_said] == [str(w.message) for w in numpy_said]
        assert numpy_said or value is np.nan  # NaN propagates quietly
        assert all(a is b for a, b in zip(_planes(got), arrays))
        _same(_planes(got), _planes(want))

        source = before[PLANES.index(plane)]
        assert compiled.smooth(source) is None
        with warnings.catch_warnings(record=True) as numpy_said:
            warnings.simplefilter("always")
            want = binomial_smooth_numpy(source, 2)
        with warnings.catch_warnings(record=True) as we_said:
            warnings.simplefilter("always")
            got = binomial_smooth(source, 2)
        assert [str(w.message) for w in we_said] == [str(w.message) for w in numpy_said]
        _same((got,), (want,))

    def test_stencils_decline_what_they_do_not_cover(self, compiled):
        """Strided views, float32, read-only E or B, planes sharing memory
        and grids 2 nodes wide or high take the NumPy body, untouched before
        it; the public functions still answer with its bytes."""
        grid, solver = self.grid, MaxwellSolver(self.grid, marder_passes=2)
        base = _fields(grid, 7)
        wide = np.zeros((10, grid.ny, 2 * grid.nx))
        wide[:, :, ::2] = np.stack(_planes(base))
        thin = [np.random.default_rng(8).normal(size=(10, *shape)) for shape in ((2, 9), (9, 2))]
        declined = [  # each built twice: once for the NumPy body alone
            lambda: FieldState(*wide.copy()[:, :, ::2]),
            lambda: FieldState(*(a.astype(np.float32) for a in _planes(base))),
            lambda: FieldState(*([base.ex.copy()] * 10)),  # one array in every plane
            *(lambda block=block: FieldState(*block.copy()) for block in thin),
        ]
        for build in declined:
            fields, want = build(), build()
            arrays, before = _planes(fields), [a.copy() for a in _planes(fields)]
            assert not compiled.field_step(solver, fields, 0.1)
            _same(_planes(fields), before)
            solver._step_numpy(want, 0.1)
            solver.step(fields, 0.1)
            assert all(a is b for a, b in zip(_planes(fields), arrays))
            _same(_planes(fields), _planes(want))
        read_only = base.copy()
        read_only.bz.flags.writeable = False
        assert not compiled.field_step(solver, read_only, 0.1)
        with pytest.raises(ValueError, match="read-only"):
            solver.step(read_only, 0.1)

        nested = [[1.0] * 4] * 4
        for a in (wide[0, :, ::2], base.ex.astype(np.float32), thin[0][0], thin[1][0], nested):
            assert compiled.smooth(a) is None
            _same((binomial_smooth(a, 2),), (binomial_smooth_numpy(np.asarray(a, dtype=float), 2),))

    @staticmethod
    def _warned(call):
        """``call()``'s answer and the warnings it raised."""
        with warnings.catch_warnings(record=True) as said:
            warnings.simplefilter("always")
            answer = call()
        return answer, [str(w.message) for w in said]

    @pytest.mark.parametrize("where", ["x_old", "y_new", "charge", "x_new"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_zigzag_declines_non_finite_inputs_untouched(self, compiled, where, value):
        """The kept blocks are left as they were; the public function then
        answers, and warns, as the NumPy body does."""
        grid = self.grid
        segments = dict(zip(("x_old", "y_old", "x_new", "y_new", "charge"), _segments(grid, 40, 3)))
        segments[where][17] = value
        args = (grid, *segments.values(), 0.4)
        kinds = [(-7, np.int64), (np.nan, np.float64)] * 2
        blocks = [np.full((4, 40), fill, dtype=dtype) for fill, dtype in kinds]
        before = [b.copy() for b in blocks]
        assert compiled.zigzag(*args, out=blocks) is None
        _same(blocks, before)
        want, numpy_said = self._warned(lambda: zigzag_entries_numpy(*args))
        got, we_said = self._warned(lambda: zigzag_entries(*args))
        assert we_said == numpy_said
        _same(got, [w.ravel() for w in want])

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("cells", [1.0, -1.0, 1.5, -3.0, "next below one"])
    def test_zigzag_declines_moves_of_a_cell(self, compiled, axis, cells):
        """A move NumPy measures at one cell or more raises its ValueError,
        the compiled pass having written nothing; one just under a cell goes
        whichever way NumPy's remainder takes it, on both paths alike."""
        grid = self.grid
        x_old, y_old, x_new, y_new, charge = _segments(grid, 40, 4)
        d = (grid.dx, grid.dy)[axis]
        move = np.nextafter(d, 0.0) if cells == "next below one" else cells * d
        ends = (x_new, y_new)[axis]
        ends[23] = (x_old, y_old)[axis][23] + move
        args = (grid, x_old, y_old, x_new, y_new, charge, 0.4)
        kinds = [(-7, np.int64), (np.nan, np.float64)] * 2
        blocks = [np.full((4, 40), fill, dtype=dtype) for fill, dtype in kinds]
        before = [b.copy() for b in blocks]
        try:
            want = zigzag_entries_numpy(*args)
        except ValueError:
            assert compiled.zigzag(*args, out=blocks) is None
            _same(blocks, before)
            with pytest.raises(ValueError, match="less than one cell"):
                zigzag_entries(*args)
        else:
            assert cells == "next below one"
            _same(compiled.zigzag(*args), want)

    @pytest.mark.parametrize("poison", ["x", "y", "field"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_yee_gather_declines_non_finite_inputs_untouched(self, compiled, poison, value):
        grid = self.grid
        parts = _on_faces(grid, 30, 5)
        node_values = _node_values(grid, 6, 5)
        if poison == "field":
            node_values[4, 11] = value
        else:
            getattr(parts, poison)[12] = value
        eb, cells = np.full((6, 30), 7.0), np.full((4, 30), -7, dtype=np.int64)
        assert not compiled.yee_gather(grid, parts.x, parts.y, node_values, eb, cells)
        _same((eb, cells), (np.full((6, 30), 7.0), np.full((4, 30), -7, dtype=np.int64)))
        want = np.empty((6, 30)), np.empty((4, 30), dtype=np.int64)
        _, numpy_said = self._warned(
            lambda: staggered_gather_numpy(grid, parts.x, parts.y, node_values, *want)
        )
        _, we_said = self._warned(
            lambda: staggered_gather(grid, parts.x, parts.y, node_values, eb, cells)
        )
        assert we_said == numpy_said
        _same((eb, cells), want)

    def test_zigzag_bin_declines_bad_indices_and_values_untouched(self, compiled):
        """A pair beyond the table is NumPy's IndexError, a destination below
        0 or beyond the bins its ValueError; a pair of -1 NumPy counts from
        the end; a value that is not finite NumPy sums.  The compiled pass
        declines each, both outputs as they were."""
        grid = self.grid
        entries = zigzag_entries_numpy(grid, *_segments(grid, 60, 6), 0.4)
        slots = _zigzag_slots(grid, entries, 3, 6)
        values = np.stack((entries[1].ravel(), entries[3].ravel()))
        npairs, nbins = len(slots.dest), grid.nnodes + slots.nodes.size
        cases = []
        for row, bad in ((0, npairs), (1, 2**40), (0, -1)):
            pair_of = slots.pair_of.copy()
            pair_of[row, 7] = bad
            cases.append((values, slots.dest, pair_of))
        for bad in (-1, nbins):
            dest = slots.dest.copy()
            dest[slots.pair_of[0, 9], JY_VERTICES[0]] = bad
            cases.append((values, dest, slots.pair_of))
        for bad in (np.nan, np.inf):
            poisoned = values.copy()
            poisoned[1, 31] = bad
            cases.append((poisoned, slots.dest, slots.pair_of))
        shapes = (2, grid.nnodes), (2, slots.nodes.size)
        for values, dest, pair_of in cases:
            acc, summed = (np.full(shape, 3.0) for shape in shapes)
            assert not compiled.zigzag_bin(values, VERTICES, dest, pair_of, acc, summed)
            _same((acc, summed), [np.full(shape, 3.0) for shape in shapes])
            try:
                want = [np.empty(shape) for shape in shapes]
                deposit_zigzag_entries_numpy(values, dest, pair_of, *want)
            except (IndexError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    deposit_zigzag_entries(values, dest, pair_of, acc, summed)
            else:
                deposit_zigzag_entries(values, dest, pair_of, acc, summed)
                _same((acc, summed), want)
        bad_vertex = (JX_VERTICES, (0, 1, 0, 4))
        assert not compiled.zigzag_bin(values, bad_vertex, slots.dest, slots.pair_of, acc, summed)

    def test_modern_kernels_take_no_view_or_other_dtype(self, compiled):
        """float32 or strided arguments, or a ``pair_of`` of one row, take the
        NumPy body; the public functions answer with its bytes."""
        grid = self.grid
        x_old, y_old, x_new, y_new, charge = _segments(grid, 64, 7)
        segments = (x_old, y_old, x_new, y_new, charge)
        for bad in (
            (*segments[:4], charge.astype(np.float32)),
            tuple(a[::2] for a in segments),
            tuple(list(a) for a in segments),
        ):
            assert compiled.zigzag(grid, *bad, 0.4) is None
            want = zigzag_entries_numpy(grid, *(np.asarray(a, dtype=float) for a in bad), 0.4)
            _same(zigzag_entries(grid, *bad, 0.4), [a.ravel() for a in want])
        blocks = [np.empty((4, 64), dtype=np.int64), np.empty((4, 128))[:, ::2]]
        blocks += [np.empty((4, 64), dtype=np.int64), np.empty((4, 64))]
        assert compiled.zigzag(grid, x_old, y_old, x_new, y_new, charge, 0.4, blocks) is None

        node_values = _node_values(grid, 6, 7)
        eb, cells = np.empty((6, 64)), np.empty((4, 64), dtype=np.int64)
        declined = [
            (x_old.astype(np.float32), y_old, node_values, eb, cells),
            (x_old[::2], y_old[::2], node_values, eb[:, :32], cells[:, :32]),
            (x_old, y_old, np.ascontiguousarray(node_values.T).T, eb, cells),
            (x_old, y_old, node_values, np.empty((6, 128))[:, ::2], cells),
            (x_old, y_old, node_values, eb, cells.astype(np.int32)),
        ]
        for args in declined:
            assert not compiled.yee_gather(grid, *args)
        want = np.empty((6, 32)), np.empty((4, 32), dtype=np.int64)
        staggered_gather_numpy(grid, x_old[::2], y_old[::2], node_values, *want)
        staggered_gather(grid, x_old[::2], y_old[::2], node_values, eb[:, :32], cells[:, :32])
        _same((eb[:, :32], cells[:, :32]), want)

        entries = zigzag_entries_numpy(grid, x_old, y_old, x_new, y_new, charge, 0.4)
        slots = _zigzag_slots(grid, entries, 2, 7)
        values = np.stack((entries[1].ravel(), entries[3].ravel()))
        shapes = (2, grid.nnodes), (2, slots.nodes.size)
        acc, summed = (np.empty(shape) for shape in shapes)
        strided = np.repeat(values, 2, axis=1)[:, ::2]
        declined = [
            (values.astype(np.float32), slots.dest, slots.pair_of, acc, summed),
            (strided, slots.dest, slots.pair_of, acc, summed),
            (values, slots.dest.astype(np.int32), slots.pair_of, acc, summed),
            (values, slots.dest, slots.pair_of[:1].copy(), acc, summed),
            (values, slots.dest, np.asfortranarray(slots.pair_of), acc, summed),
            (values, slots.dest, slots.pair_of, np.empty((4, grid.nnodes))[::2], summed),
            (values, slots.dest, slots.pair_of, acc, np.empty((1, slots.nodes.size))),
        ]
        for values_, dest, pair_of, acc_, summed_ in declined:
            assert not compiled.zigzag_bin(values_, VERTICES, dest, pair_of, acc_, summed_)
        want = [np.empty(shape) for shape in shapes]
        deposit_zigzag_entries_numpy(values, slots.dest, slots.pair_of, *want)
        deposit_zigzag_entries(strided, slots.dest, slots.pair_of, acc, summed)
        _same((acc, summed), want)


# ----------------------------------------------------------------------
# the loader's failure taxonomy
# ----------------------------------------------------------------------
def _cic_works_without(monkeypatch, answer):
    """With ``answer`` installed as the loader's, results are the NumPy bodies'."""
    monkeypatch.setattr(native, "_loaded", answer)
    grid, parts = GRIDS[1], _particles(GRIDS[1], 100, 6)
    assert native.kernels() is None and native.status() is answer[1]
    _same(grid.cic_vertices_weights(parts.x, parts.y), _cic_numpy(grid, parts.x, parts.y))


def _built_cache(tmp_path) -> Path:
    cache = tmp_path / "cache"
    found, status = native.load(cache)
    if not status.active:
        pytest.skip(f"no compiled kernels on this host: {status.reason}")
    assert Path(status.library).parent == cache
    return cache


class TestLoader:
    def test_builds_into_a_private_cache_and_leaves_nothing_else(self, tmp_path):
        cache = _built_cache(tmp_path)
        (library,) = cache.iterdir()
        assert library.suffix == ".so" and stat.S_IMODE(cache.stat().st_mode) == 0o700
        assert not library.stat().st_mode & 0o022
        again, status = native.load(cache, cc="/nonexistent/cc")  # cached under its own name
        assert not status.active

    def test_compiler_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        answer = native.load(tmp_path / "cache")
        assert answer[0] is None and not answer[1].active and "no C compiler" in answer[1].reason
        _cic_works_without(monkeypatch, answer)

    def test_compiler_cannot_be_run(self, tmp_path, monkeypatch):
        answer = native.load(tmp_path / "cache", cc=str(tmp_path / "no-such-cc"))
        assert not answer[1].active and "did not run" in answer[1].reason
        assert list((tmp_path / "cache").iterdir()) == []
        _cic_works_without(monkeypatch, answer)

    def test_compiler_exits_non_zero(self, tmp_path, monkeypatch):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\necho 'pic_kernels.c:1: error: no' >&2\nexit 3\n")
        fake.chmod(0o700)
        answer = native.load(tmp_path / "cache", cc=str(fake))
        assert not answer[1].active
        assert "exited 3" in answer[1].reason and "error: no" in answer[1].reason
        assert list((tmp_path / "cache").iterdir()) == []  # no temporary left behind
        _cic_works_without(monkeypatch, answer)

    def test_truncated_cached_library(self, compiled, tmp_path, monkeypatch):
        """Never handed to ``dlopen`` (which dies of SIGBUS on it), and not
        found again by the next process either: it is removed and the library
        built once more; only if that fails too do the NumPy bodies run."""
        wrapper = tmp_path / "cc"  # a compiler of our own, to break it later
        wrapper.write_text(f'#!/bin/sh\nexec {shutil.which("cc")} "$@"\n')
        wrapper.chmod(0o700)
        cache = tmp_path / "cache"
        found, status = native.load(cache, cc=str(wrapper))
        assert status.active
        whole = Path(status.library).read_bytes()

        def truncate(name):
            (cache / name).unlink(missing_ok=True)  # a new file: the old one may be mapped here
            (cache / name).write_bytes(whole[:4096])
            (cache / name).chmod(0o700)

        truncate(Path(status.library).name)
        found, status = native.load(cache, cc=str(wrapper))
        (rebuilt,) = cache.iterdir()
        assert status.active and status.library == str(rebuilt) and rebuilt.stat().st_size > 4096
        parts = _particles(GRIDS[1], 100, 6)
        _same(found.cic(GRIDS[1], parts.x, parts.y), _cic_numpy(GRIDS[1], parts.x, parts.y))

        # a damaged library that sorts before an intact one does not hide it
        truncate(rebuilt.name.rpartition("-")[0] + "-0000000000000000.so")
        status = native.load(cache, cc=str(wrapper))[1]
        assert status.active and list(cache.iterdir()) == [rebuilt]

        truncate(rebuilt.name)
        wrapper.write_text("#!/bin/sh\nexit 3\n")
        answer = native.load(cache, cc=str(wrapper))
        assert not answer[1].active and "exited 3" in answer[1].reason
        assert list(cache.iterdir()) == []  # the next process starts clean
        _cic_works_without(monkeypatch, answer)

    def test_library_without_the_entry_points(self, compiled, tmp_path, monkeypatch):
        """A compiler that builds something else: loading must not trust it."""
        fake = tmp_path / "cc"
        cc = shutil.which("cc")  # the output path is the argument after the loader's -o
        script = 'cat > /dev/null\nwhile [ "$1" != -o ]; do shift; done\n'
        fake.write_text(f'#!/bin/sh\n{script}exec {cc} -shared -x c /dev/null -o "$2"\n')
        fake.chmod(0o700)
        answer = native.load(tmp_path / "cache", cc=str(fake))
        assert not answer[1].active and "cannot load" in answer[1].reason
        _cic_works_without(monkeypatch, answer)

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_cache_writable_by_others(self, tmp_path, monkeypatch, mode):
        cache = _built_cache(tmp_path)
        cache.chmod(mode)
        answer = native.load(cache)
        assert not answer[1].active and "not a private" in answer[1].reason
        _cic_works_without(monkeypatch, answer)

    def test_cache_owned_by_another_user(self, tmp_path, monkeypatch):
        cache = _built_cache(tmp_path)
        me = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: me + 1)
        answer = native.load(cache)
        assert not answer[1].active and "not a private" in answer[1].reason
        monkeypatch.undo()
        _cic_works_without(monkeypatch, answer)

    def test_library_is_a_symlink_or_writable_by_others(self, tmp_path):
        cache = _built_cache(tmp_path)
        (library,) = cache.iterdir()
        library.chmod(0o722)
        assert not native.load(cache)[1].active
        real = tmp_path / "elsewhere.so"
        library.chmod(0o700)
        library.rename(real)
        library.symlink_to(real)
        assert "not a private" in native.load(cache)[1].reason

    def test_cache_cannot_be_created(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        answer = native.load(blocker / "cache")
        assert not answer[1].active and answer[1].reason

    def test_self_check_mismatch_drops_the_library(self, compiled, tmp_path, monkeypatch):
        """A library whose floats differ (here: a fused multiply-add build
        would do it) is not used."""
        import repro.native.calls as calls

        monkeypatch.setattr(calls, "self_check", lambda found: "interpolate")
        answer = native.load(tmp_path / "cache")
        assert not answer[1].active and "self-check: interpolate" in answer[1].reason
        _cic_works_without(monkeypatch, answer)

    def test_two_processes_building_at_once(self, compiled, tmp_path):
        """Both end with a whole library: the build goes through a private
        temporary name and ``os.replace``."""
        cache = tmp_path / "cache"
        code = (
            "import sys; from repro import native; found, status = native.load(sys.argv[1]); "
            "assert status.active, status.reason; print(status.library)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        builders = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(cache)], env=env, stdout=subprocess.PIPE
            )
            for _ in range(2)
        ]
        libraries = {p.communicate(timeout=120)[0].decode().strip() for p in builders}
        assert all(p.returncode == 0 for p in builders)
        assert len(libraries) == 1 and [str(f) for f in cache.iterdir()] == list(libraries)
        assert native.load(cache)[1].active

    def test_status_names_compiler_and_flags(self, compiled):
        """The byte contract rests on what FLAGS leaves out: -O3 is one step
        from the flags that re-associate, contract or retarget the floats."""
        found, status = native.load()
        assert status.active and status.reason is None
        assert Path(status.compiler).name == "cc" and status.flags == native.FLAGS
        assert "-ffp-contract=off" in native.FLAGS
        forbidden = ("-Ofast", "-ffast-math", "-fassociative-math", "-funsafe-math-optimizations")
        assert not set(forbidden) & set(native.FLAGS)
        assert not any(flag.startswith(("-march", "-mtune")) for flag in native.FLAGS)

    def test_marked_loops_are_vectorized(self, compiled):
        """What CI's vectorization guard asserts, on this host's compiler."""
        cc = shutil.which("cc")
        if not vectorization_guard.is_gcc(cc):
            pytest.skip(f"the guard reads GCC's -fopt-info; cc is {cc}")
        assert vectorization_guard.main() == 0

    def test_guard_counts_the_entry_points(self):
        """The guard's count is the exported functions ``Kernels`` binds,
        and a function added without ``static`` is one more."""
        from repro.native.calls import _SIGNATURES

        source = native.SOURCE.read_text()
        found = vectorization_guard.entry_points(source)
        assert sorted(found) == sorted(_SIGNATURES)
        assert len(found) <= vectorization_guard.MAX_ENTRY_POINTS
        extra = source + "\nint64_t extra(int64_t n)\n{\n    return n;\n}\n"
        assert vectorization_guard.entry_points(extra) == [*found, "extra"]


# ----------------------------------------------------------------------
# whole runs: compiled == NumPy bodies, by bytes
# ----------------------------------------------------------------------
def _fingerprint(config, faults=None, workers=0, iterations=6):
    sim = Simulation(config, workers=workers)
    if faults is not None:
        sim.install_faults(faults)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a poisoned run warns on both paths alike
            try:  # as text: a poisoned run's NaNs must compare equal
                document = json.dumps(sim.run(iterations).to_dict(), sort_keys=True)
            except SimulationIntegrityError as exc:  # strict guards: the error is the result
                document = repr(exc)
        parts, fields = sim.pic.all_particles(), sim.pic.fields
        state = [getattr(parts, name).tobytes() for name in ParticleArray.__slots__]
        state += [
            getattr(fields, name).tobytes()
            for name in ("rho", "jx", "jy", "jz", "ex", "ey", "ez", "bx", "by", "bz")
        ]
    finally:
        sim.close()  # unmaps a worker pool's shared particle columns
    return document, state, sim.vm.state_dict()


_BASE = dict(nx=32, ny=16, nparticles=1500, p=5, seed=4, distribution="irregular", policy="dynamic")
_POISON = FaultPlan(events=(FaultEvent(kind="poison", iteration=2, phase="scatter"),))
_RUNS = {
    "era-hash": (dict(), None, 0),
    "era-workers2": (dict(), None, 2),
    "era-direct-eulerian": (
        dict(ghost_table="direct", movement="eulerian", partitioning="grid"), None, 0
    ),
    "electrostatic-periodic": (dict(field_solver="electrostatic", policy="periodic:2"), None, 0),
    "modern": (dict(kernel="modern"), None, 0),
    "modern-snake-p1": (dict(kernel="modern", scheme="snake", p=1), None, 0),
    "poisoned-scatter": (dict(guards="warn"), _POISON, 0),
    "poisoned-strict-workers2": (dict(guards="strict"), _POISON, 2),
    "poisoned-modern": (dict(kernel="modern", guards="warn"), _POISON, 0),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_runs_are_identical_on_either_path(name, request):
    """Result document, particles, ten fields and the machine's state."""
    overrides, faults, workers = _RUNS[name]
    config = SimulationConfig(**{**_BASE, **overrides})
    compiled_run = _fingerprint(config, faults, workers)
    request.getfixturevalue("numpy_kernels")
    assert native.kernels() is None
    assert _fingerprint(config, faults, workers) == compiled_run


def test_shard_threads_racing_the_first_load_build_once(compiled, monkeypatch, tmp_path):
    """The first ``native.kernels()`` of a process may come from two shard
    threads at once: one of them builds, loads and self-checks, the other
    waits for that answer."""
    from repro.native import calls
    from repro.parallel_exec import FlatBackend
    from repro.particles import ParticlePool

    events = []
    build, check = native._build, calls.self_check
    monkeypatch.setattr(native, "_build", lambda *a: events.append("build") or build(*a))
    monkeypatch.setattr(calls, "self_check", lambda k: events.append("check") or check(k))
    monkeypatch.setattr(native, "load", lambda load=native.load: load(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", None)  # as in a process that has not asked yet

    grid = GRIDS[0]
    parts = _particles(grid, 600, seed=2)
    pool = ParticlePool(parts, np.array([0, 300, 600]))
    got = []

    def spy(*args, kernels=native.kernels):
        got.append(kernels())
        return got[-1]

    monkeypatch.setattr(native, "kernels", spy)
    backend = FlatBackend(2, grid)
    try:
        backend.gather_push(pool, tuple(np.zeros((6, *grid.shape))), 0.05)
    finally:
        backend.close()
    assert events == ["build", "check"]
    # one ask per shard: the gather + push is one compiled pass
    assert len(got) == 2 and got[0] is not None and all(k is got[0] for k in got)


def test_kept_rows_are_private_to_a_forked_process(compiled):
    """A job-service worker is forked from a process that may have run the
    kernels already: the kept output rows it inherits are its own copy on
    write, never pages its parent or a sibling worker writes too."""
    import multiprocessing

    rows = compiled._rows("fork_probe", 2, 512, np.int64)
    rows[:] = 7

    def child():
        compiled._rows("fork_probe", 2, 512, np.int64)[:] = -1

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join()
    assert proc.exitcode == 0
    assert (rows == 7).all()
