"""The compiled PIC kernels reproduce their NumPy bodies byte for byte.

``repro.native`` puts four C loops behind ``scatter_segment`` (both
steppers' scatters), ``gather_push_slice`` (both steppers' gathers +
pushes, the Yee gather's request slots included), ``MaxwellSolver.step``
and ``binomial_smooth``.
The NumPy bodies stay as fallback and oracle, and the contract is
equality *by bytes* — on ordinary inputs through the C loop (asserted: a
comparison that silently took the fallback proves nothing), on
exceptional ones through the fallback the C loop asks for, with the
warnings and errors NumPy raises.  The loader may fail in many ways and
each must end in the NumPy bodies, a reason, and the same results.
"""

import ctypes
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.machine import FaultEvent, FaultPlan
from repro.native.calls import Kernels, Shards, self_check
from repro.mesh import CurveBlockDecomposition, FieldState, Grid2D
from repro.parallel_exec.kernels import (
    STENCILS,
    deposit_numpy,
    gather_push_numpy,
    gather_push_slice,
    node_fields_numpy,
    scatter_numpy,
    scatter_segment,
    scatter_yee_numpy,
)
from repro.particles import ParticleArray
from repro.pic import MaxwellSolver, Simulation, SimulationConfig
from repro.pic.deposition import ghost_slots_numpy
from repro.pic.interpolation import gather_from_node_values, interpolate_numpy
from repro.pic.push import push_numpy
from repro.pic.smoothing import binomial_smooth, binomial_smooth_numpy
from repro.pic.zigzag import deposit_zigzag_entries, zigzag_entries_numpy
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


#: the CPU flags (as /proc/cpuinfo names them) each clone target needs
CLONE_FLAGS = {
    "default": (),
    "x86-64-v3": ("avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"),
}
CLONE_FLAGS["x86-64-v4"] = (
    *CLONE_FLAGS["x86-64-v3"], "avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl",
)  # fmt: skip


def _cpu_flags() -> set[str]:
    """This CPU's feature flags as /proc/cpuinfo names them (none elsewhere)."""
    try:
        found = re.search(r"^flags\s*:(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
    except OSError:
        return set()
    return set(found.group(1).split()) if found else set()


@pytest.fixture(scope="module")
def clone_libraries(compiled, tmp_path_factory) -> dict:
    """Target -> the library built for that clone target alone
    (``-DCLONED=``) into a fresh directory, or why this CPU cannot run it
    (the flag it lacks); FLAGS and the cached library stay as they are."""
    flags = _cpu_flags()
    targets = vectorization_guard.TARGETS
    lacking = {t: [f for f in CLONE_FLAGS[t] if f not in flags] for t in targets}
    runnable = [t for t, missing in lacking.items() if not missing]
    directory = tmp_path_factory.mktemp("clones")
    source = native.SOURCE.read_bytes()
    vectorization_guard.build_clones(shutil.which("cc"), source, directory, runnable)
    return {
        t: directory / f"{t}.so" if t in runnable else f"{t} needs the CPU flag {lacking[t][0]}"
        for t in targets
    }


@pytest.fixture(scope="module", params=vectorization_guard.TARGETS)
def clone(request, clone_libraries):
    """The kernels of one clone target; skipped where this CPU lacks it."""
    library = clone_libraries[request.param]
    if isinstance(library, str):
        pytest.skip(library)
    return Kernels(ctypes.CDLL(str(library)))


def _cic_numpy(grid, x, y):
    return grid.cic_from_axes(grid.cic_axis(x, 0), grid.cic_axis(y, 1))


def _particles(grid, n, seed, charge_scale=1.0, inside=False):
    """Random particles; the first five sit at 0, ``lx``, ``-1e-18``,
    ``-0.0`` and ``1e8 * lx`` (and the y likewise, rotated) — or, with
    ``inside``, all inside the box (the branch-free CIC's domain), the
    first three at 0, -0.0 and the largest double below ``lx``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2 * grid.lx, 3 * grid.lx, n)
    y = rng.uniform(-2 * grid.ly, 3 * grid.ly, n)
    edge = np.array([0.0, 1.0, -1e-18, -0.0, 1e8])
    x[:5] = (edge * [1, grid.lx, 1, 1, grid.lx])[:n]
    y[:5] = np.roll(edge * [1, grid.ly, 1, 1, grid.ly], 2)[:n]
    if inside:
        x, y = np.mod(x, grid.lx), np.mod(y, grid.ly)
        x[:3] = np.array([0.0, -0.0, np.nextafter(grid.lx, 0.0)])[:n]
        y[:3] = np.array([np.nextafter(grid.ly, 0.0), 0.0, -0.0])[:n]
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


def _node_fields(planes):
    """The gather's node-interleaved E and B, as NumPy builds them."""
    return node_fields_numpy(planes, np.empty((planes[0].size, 8)))


cases = st.tuples(st.sampled_from(GRIDS), st.sampled_from(SIZES), st.integers(0, 2**31))
#: push lengths that leave every vector remainder, and more than one chunk
LANES = [*range(1, 18), 257]
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


def _shards(cuts, starts) -> Shards:
    """The passes run on the calling thread, cut at ``cuts`` / ``starts``."""
    cuts, starts = np.asarray(cuts, dtype=np.int64), np.asarray(starts, dtype=np.int64)
    return Shards(cuts, starts, None, np.zeros((len(cuts) - 1, 3), np.int64))


def _ranks(grid, n, p, seed):
    """``(owner map, counts, offsets)`` of ``n`` particles cut into ``p``
    rank segments, some of them empty."""
    rng = np.random.default_rng(seed)
    counts = np.diff(np.concatenate(([0], np.sort(rng.integers(0, n + 1, p - 1)), [n])))
    return CurveBlockDecomposition(grid, p, "hilbert").owner_map, counts, np.cumsum([0, *counts])


# ----------------------------------------------------------------------
# each entry point against its NumPy body
# ----------------------------------------------------------------------
#: the hypothesis inputs of the scatter and gather + push byte tests
SCATTER_CASES = (cases, st.sampled_from([1, 4]), st.sampled_from([1.0, 1e-310]), st.booleans())
GATHER_PUSH_CASES = (cases, st.sampled_from([0.05, 0.5, 7.0]), st.booleans())
MODERN_SCATTER_CASES = (modern_cases, st.sampled_from([1, 3]), st.sampled_from([1.0, 1e-310]))
YEE_GATHER_PUSH_CASES = (modern_cases, st.sampled_from([0.05, 0.6]))


def _scatter_bytes(kernels, case, p, charge_scale, inside):
    """The whole pool as one shard and cut into one shard a rank (run in
    turn, as a team runs them), also with subnormal charges and with every
    particle inside the box: the deposited row, the slot sums and the
    tallies of ``scatter_numpy``."""
    grid, n, seed = case
    parts = _particles(grid, n, seed, charge_scale, inside)
    owner, counts, offsets = _ranks(grid, n, p, seed)
    want_acc = np.full((4, grid.nnodes), np.nan)
    want = scatter_numpy(grid, parts, counts, owner, want_acc)
    for cuts in ([0, p], np.arange(p + 1)):
        acc = np.full((4, grid.nnodes), np.nan)
        got = kernels.scatter(grid, parts, counts, owner, acc, _shards(cuts, offsets[cuts]))
        assert got is not None
        _same((*got, acc), (*want, want_acc))


def _modern_scatter_bytes(kernels, case, p, charge_scale):
    """The modern mode of the scatter, cut as :func:`_scatter_bytes` cuts
    the era's: the moves of :func:`_segments` (some of zero charge, some
    across the periodic seam, the longest ones under a cell), also with
    subnormal charges: the deposited row and the slots of
    ``scatter_yee_numpy``, none dropped that it keeps."""
    grid, n, seed = case
    x_old, y_old, x_new, y_new, charge = _segments(grid, n, seed)
    parts = _particles(grid, n, seed, charge_scale)
    parts.x[:], parts.y[:] = x_new, y_new
    parts.w[charge == 0.0] = 0.0
    owner, counts, offsets = _ranks(grid, n, p, seed)
    moved = (x_old, y_old, 0.6)
    want_acc = np.full((4, grid.nnodes), np.nan)
    want = scatter_yee_numpy(grid, parts, counts, owner, want_acc, *moved)
    for cuts in ([0, p], np.arange(p + 1)):
        acc = np.full((4, grid.nnodes), np.nan)
        got = kernels.scatter(grid, parts, counts, owner, acc, _shards(cuts, offsets[cuts]), moved)
        assert got is not None and got[4:] == want[4:] == (None, None)
        _same((*got[:4], acc), (*want[:4], want_acc))


def _modern_scatter_groups(kernels, case, p, charge_scale, group, dt=0.6):
    """One entry group of the modern scatter (``"zigzag"``: the ``jx``/``jy``
    channels; ``"cic"``: ``jz``/``rho``) against that group's own NumPy
    body, on the ghost slots of the cells the entries hang off (both
    sub-segments', then the CIC one) over ``p`` ranks, cut as
    :func:`_modern_scatter_bytes` cuts it, after a step of ``dt``.  The
    pass keeps the slots in their order and drops exactly those that no
    CIC entry and no nonzero current reached."""
    grid, n, seed = case
    x_old, y_old, x_new, y_new, charge = _segments(grid, n, seed)
    parts = _particles(grid, n, seed, charge_scale)
    parts.x[:], parts.y[:] = x_new, y_new
    parts.w[charge == 0.0] = 0.0
    owner, counts, offsets = _ranks(grid, n, p, seed)
    entries = zigzag_entries_numpy(grid, x_old, y_old, x_new, y_new, parts.w * parts.q, dt)
    vertices = _cic_numpy(grid, x_new, y_new)
    cells = np.stack((entries[0][0], entries[0][2], vertices[0][:, 0]))
    slots = ghost_slots_numpy(grid, owner, np.repeat(np.arange(p), counts), cells)
    nnodes, nslots = grid.nnodes, slots.nodes.size
    assert p > 1 or nslots == 0
    currents, current_sums = np.empty((2, nnodes)), np.empty((2, nslots))
    values = np.stack((entries[1].ravel(), entries[3].ravel()))
    deposit_zigzag_entries(values, slots.dest, slots.pair_of, currents, current_sums)
    currents *= grid.dx
    currents *= grid.dy
    current_sums = current_sums * grid.dx * grid.dy + 0.0
    cic = np.empty((4, nnodes))
    cic_sums = deposit_numpy(grid, parts, vertices, slots.dest, slots.pair_of[2], cic, nslots)
    has_cic = np.isin(nnodes + np.arange(nslots), slots.dest[slots.pair_of[2]])
    keep = has_cic | (current_sums != 0).any(axis=0)
    rows, want = {
        "zigzag": (slice(0, 2), (current_sums[:, keep], currents)),
        "cic": (slice(2, 4), (cic_sums[[3, 0]][:, keep], cic[[3, 0]])),
    }[group]
    for cuts in ([0, p], np.arange(p + 1)):
        acc = np.full((4, nnodes), np.nan)
        shards = _shards(cuts, offsets[cuts])
        got = kernels.scatter(grid, parts, counts, owner, acc, shards, (x_old, y_old, dt))
        assert got is not None
        _same(got[1:4], (slots.ranks[keep], slots.owners[keep], slots.nodes[keep]))
        _same((got[0][rows], acc[rows]), want)


def _yee_gather_push_bytes(kernels, case, dt, p=3):
    """The Yee mode of the gather + push from positions on cell faces and
    half faces (the stencils' boundaries), some outside the box, over ``p``
    ranks (some empty), as one shard and as one a rank: the node block,
    the stencil cells and the pushed particles of ``gather_push_numpy``,
    and the request slots ``ghost_slots_numpy`` finds in those cells."""
    grid, n, seed = case
    planes = tuple(_node_values(grid, 6, seed).reshape(6, *grid.shape))
    owner, counts, offsets = _ranks(grid, n, p, seed)
    want, want_cells = _on_faces(grid, n, seed), np.empty((4, n), dtype=np.int64)
    gather_push_numpy(grid, want, _node_fields(planes), dt, want_cells)
    want_slots = ghost_slots_numpy(grid, owner, np.repeat(np.arange(p), counts), want_cells)
    for cuts in ([0, p], np.arange(p + 1)):
        got, shards = _on_faces(grid, n, seed), _shards(cuts, offsets[cuts])
        cells = np.full((4, n), -1, dtype=np.int64)
        fields, slots = kernels.gather_push(grid, got, planes, dt, shards, cells, counts, owner)
        _same((fields, cells, *slots), (_node_fields(planes), want_cells, *want_slots[:3]))
        assert (shards.out[:, 0] == np.diff(offsets[cuts])).all()
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])


def _pushed_bytes(kernels, grid, got, planes, dt):
    """The era gather + push of ``got`` from ``planes`` as one shard writes
    every particle, with ``gather_push_numpy``'s bytes, and the particles
    end inside the box."""
    want, shards = got.copy(), Shards.one(1, got.n)
    fields, slots = kernels.gather_push(grid, got, planes, dt, shards)
    assert slots is None
    _same((fields,), (_node_fields(planes),))
    assert shards.out[0, 0] == got.n
    gather_push_numpy(grid, want, fields, dt)
    _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])
    assert np.all((got.x >= 0) & (got.x < grid.lx) & (got.y >= 0) & (got.y < grid.ly))


def _gather_push_bytes(kernels, case, dt, inside):
    """From positions anywhere and all inside the box; the
    node-interleaved fields are NumPy's bytes too."""
    grid, n, seed = case
    planes = tuple(_planes(_fields(grid, seed))[:6])
    _pushed_bytes(kernels, grid, _particles(grid, n, seed, inside=inside), planes, dt)


def _boris_push_lanes(kernels, n):
    """Lengths that leave every vector remainder, with a position out of
    the box (so the scalar CIC and the wrap pass's slow path) in each lane
    in turn."""
    grid = GRIDS[1]
    outside = [-1e-18, 3.5 * grid.lx, -2.25 * grid.lx, 1e8 * grid.lx, -0.0]
    rng = np.random.default_rng(n)
    planes = tuple(rng.normal(0.0, 2.0, (6, *grid.shape)))
    for lane in range(n):
        got = _particles(grid, n, lane)
        got.x[:] = rng.uniform(0.0, grid.lx, n)
        got.y[:] = rng.uniform(0.0, grid.ly, n)
        got.x[lane] = outside[lane % len(outside)]
        got.y[(lane + 1) % n] = outside[(lane + 2) % len(outside)] * grid.ly / grid.lx
        _pushed_bytes(kernels, grid, got, planes, 0.3)


def _wrap_edges(kernels):
    """Positions the push leaves (zero fields and momenta: the position
    itself) at the edges of the branch-free wrap's range ``[-l, 2 l)``:
    -l, l, just inside each and tiny negatives whose sum with l rounds
    to l, in a chunk that takes that pass; the same with 2 l, past its
    end, in a chunk that folds with ``fmod``."""
    grid = GRIDS[1]
    planes = tuple(np.zeros((6, *grid.shape)))
    for length, row in ((grid.lx, "x"), (grid.ly, "y")):
        below, last = np.nextafter(length, 0.0), np.nextafter(2 * length, 0.0)
        near = [-length, -below, -1e-300, -1e-17, -0.0, 0.0, below, length, last]
        for edges in (near, [*near, 2 * length]):
            got = _particles(grid, len(edges), 9, inside=True)
            getattr(got, row)[:] = edges
            got.ux[:] = got.uy[:] = got.uz[:] = 0.0
            _pushed_bytes(kernels, grid, got, planes, 0.3)


class TestBytes:
    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([1e-8, 1.0, 1e8]))
    def test_interpolate(self, compiled, case, scale):
        """The gather + push interpolates as ``interpolate_numpy`` does: the
        six planes of different magnitudes, signed zeros among them."""
        grid, n, seed = case
        planes = tuple((_node_values(grid, 6, seed) * scale).reshape(6, *grid.shape))
        got, want = _particles(grid, n, seed), _particles(grid, n, seed)
        shards = Shards.one(1, n)
        assert compiled.gather_push(grid, got, planes, 0.3, shards) is not None
        assert shards.out[0, 0] == n
        nodes, weights = _cic_numpy(grid, want.x, want.y)
        eb = interpolate_numpy(np.stack([a.ravel() for a in planes], axis=1), nodes, weights)
        push_numpy(grid, want, eb[:3], eb[3:], 0.3)
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    @settings(max_examples=40, deadline=None)
    @given(*SCATTER_CASES)
    def test_scatter(self, compiled, case, p, charge_scale, inside):
        _scatter_bytes(compiled, case, p, charge_scale, inside)

    @settings(max_examples=40, deadline=None)
    @given(*GATHER_PUSH_CASES)
    def test_gather_push(self, compiled, case, dt, inside):
        _gather_push_bytes(compiled, case, dt, inside)

    @settings(max_examples=40, deadline=None)
    @given(*MODERN_SCATTER_CASES)
    def test_modern_scatter(self, compiled, case, p, charge_scale):
        _modern_scatter_bytes(compiled, case, p, charge_scale)

    @settings(max_examples=40, deadline=None)
    @given(modern_cases, st.sampled_from([1, 4]), st.sampled_from([1.0, 1e-310, 3e-320]))
    def test_deposit(self, compiled, case, p, charge_scale):
        """The CIC ``jz``/``rho`` of the modern scatter are ``deposit_numpy``'s
        at every shard cut of a ``p``-rank run (``p`` = 1: no ghost slot),
        also with subnormal charges."""
        _modern_scatter_groups(compiled, case, p, charge_scale, "cic")

    @settings(max_examples=40, deadline=None)
    @given(modern_cases, st.sampled_from([1, 3]), st.sampled_from([1.0, 1e-310]))
    def test_zigzag_bin(self, compiled, case, p, charge_scale):
        """Both components of real zigzag entries (some charges zero, or all
        subnormal), binned by the ghost slots of their cells over ``p`` ranks
        and scaled by the cell area, are ``deposit_zigzag_entries``' sums."""
        _modern_scatter_groups(compiled, case, p, charge_scale, "zigzag")

    @settings(max_examples=40, deadline=None)
    @given(*YEE_GATHER_PUSH_CASES)
    def test_yee_gather(self, compiled, case, dt):
        _yee_gather_push_bytes(compiled, case, dt)

    @settings(max_examples=60, deadline=None)
    @given(
        cases,
        st.sampled_from([1, 2, 5]),
        st.sampled_from(["hilbert", "all_on_rank", "all_off_rank"]),
    )
    def test_ghost_slots(self, compiled, case, p, owned):
        """The Yee gather's request slots are ``ghost_slots_numpy``'s of its
        stencil cells over ``p`` ranks, some empty, with particles on the
        box's edges and in its four corner cells (stencils that wrap), as
        one shard and as up to three run in turn; every node owned by rank
        0, or by an idle rank ``p`` (every vertex off-rank)."""
        grid, n, seed = case
        _, counts, offsets = _ranks(grid, n, p, seed)
        owner = {
            "hilbert": CurveBlockDecomposition(grid, p, "hilbert").owner_map,
            "all_on_rank": np.zeros(grid.nnodes, dtype=np.int64),
            "all_off_rank": np.full(grid.nnodes, p, dtype=np.int64),
        }[owned]
        parts = _particles(grid, n, seed)  # the first five on the box's edges
        quarter = np.array([[0.25, 0.25], [-0.25, 0.25], [0.25, -0.25], [-0.25, -0.25]])
        corners = np.mod(quarter * [grid.dx, grid.dy], [grid.lx, grid.ly])[: max(n - 5, 0)]
        parts.x[5 : 5 + len(corners)], parts.y[5 : 5 + len(corners)] = corners.T
        planes = tuple(_node_values(grid, 6, seed).reshape(6, *grid.shape))
        cells = np.empty((4, n), dtype=np.int64)
        gather_push_numpy(grid, parts.copy(), _node_fields(planes), 0.3, cells)
        want = ghost_slots_numpy(grid, owner, np.repeat(np.arange(p), counts), cells)
        for cuts in ([0, p], np.unique([0, p // 3, 2 * p // 3, p])):
            shards = _shards(cuts, offsets[cuts])
            got = compiled.gather_push(grid, parts.copy(), planes, 0.3, shards, cells, counts, owner)
            _same(got[1], want[:3])
        if owned == "all_off_rank":
            assert (want.dest >= grid.nnodes).all()
        elif owned == "all_on_rank":
            assert (want.ranks > 0).all() and (want.dest[want.pair_of[:, : counts[0]]] < grid.nnodes).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(GRIDS),
        st.lists(st.integers(0, 40), min_size=1, max_size=6),
        st.integers(0, 3),
        st.sampled_from(["own_cells", "random"]),
        st.sampled_from(["hilbert", "all_off_rank"]),
        st.integers(0, 2**31),
    )
    def test_ghost_slots_sizes_its_outputs_in_one_call(
        self, compiled, grid, counts, idle, cells_kind, owned, seed
    ):
        """The Yee gather's slots and the scatter's, one pass each into kept
        blocks sized before it, fresh ones here: empty ranks, ``idle`` more
        ranks that own nodes and hold no particle, and the worst cases for
        that sizing -- every particle in a cell of its own (as many pairs as
        the cells allow) and every vertex off-rank (four slots a pair)."""
        fresh = type(compiled)(compiled._lib)
        n, p = sum(counts), len(counts)
        counts = np.array(counts, dtype=np.int64)
        parts = _particles(grid, n, seed)
        if cells_kind == "own_cells":  # at the cells' centres, one a cell while they last
            cell = np.random.default_rng(seed).permutation(np.resize(np.arange(grid.ncells), n))
            parts.x[:] = (cell % grid.nx + 0.5) * grid.dx
            parts.y[:] = (cell // grid.nx + 0.5) * grid.dy
        owner = {
            "hilbert": CurveBlockDecomposition(grid, p + idle, "hilbert").owner_map,
            "all_off_rank": np.full(grid.nnodes, p + idle, dtype=np.int64),
        }[owned]
        planes = tuple(_node_values(grid, 6, seed).reshape(6, *grid.shape))
        cells = np.empty((2, 4, n), dtype=np.int64)
        gather_push_numpy(grid, parts.copy(), _node_fields(planes), 0.3, cells[1])
        want = ghost_slots_numpy(grid, owner, np.repeat(np.arange(p), counts), cells[1])
        shards = Shards.one(p, n)
        got = fresh.gather_push(grid, parts.copy(), planes, 0.3, shards, cells[0], counts, owner)
        _same((cells[0], *got[1]), (cells[1], *want[:3]))
        if owned == "all_off_rank":
            assert want.nodes.size == len(np.unique(want.dest)) and (want.dest >= grid.nnodes).all()
        acc, want_acc = np.empty((2, 4, grid.nnodes))
        got = fresh.scatter(grid, parts, counts, owner, acc)
        assert got is not None
        _same((*got, acc), (*scatter_numpy(grid, parts, counts, owner, want_acc), want_acc))

    @settings(max_examples=40, deadline=None)
    @given(cases, st.sampled_from([0.05, 0.5, 7.0]))
    def test_boris_push(self, compiled, case, dt):
        """The push of the era gather + push, from fields with whole columns
        of +0.0 and of -0.0, so some particles see none at all."""
        grid, n, seed = case
        planes = np.random.default_rng(seed).normal(0.0, 2.0, (6, grid.ny, grid.nx))
        planes[:3, :, ::5], planes[3:, :, ::7] = 0.0, -0.0
        _pushed_bytes(compiled, grid, _particles(grid, n, seed), tuple(planes), dt)

    @pytest.mark.parametrize("n", LANES)
    def test_boris_push_in_every_lane(self, compiled, n):
        _boris_push_lanes(compiled, n)

    def test_push_wraps_the_box_edges(self, compiled):
        _wrap_edges(compiled)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(3, 12),
        st.integers(3, 12),
        st.sampled_from([(1.0, 1.0), (10.0, 3.0), (0.7, 2.5)]),
        st.sampled_from([0.05, 0.5, 0.99]),
        st.integers(0, 2**31),
    )
    def test_field_step(self, compiled, nx, ny, box, cfl, seed):
        """Non-square grids down to 3x3, signed zeros, ``dt`` up to the CFL
        limit, the ten planes adjacent rows of one block: E and B stay the
        same arrays and hold ``_step_numpy``'s bytes."""
        grid = Grid2D(nx, ny, lx=box[0], ly=box[1])
        solver = MaxwellSolver(grid)
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
        """One plane, and the four source planes in one call, as the
        steppers smooth them."""
        block = np.stack(_planes(_fields(Grid2D(nx, ny), seed))[6:])
        for a in (block[3], block):
            got = compiled.smooth(a)
            assert got is not None and got is not a
            _same((got,), (binomial_smooth_numpy(a),))
        _same(tuple(compiled.smooth(block)), tuple(binomial_smooth_numpy(plane) for plane in block))

    @settings(max_examples=60, deadline=None)
    @given(modern_cases, st.sampled_from([0.05, 0.6, 3.0]))
    def test_zigzag(self, compiled, case, dt):
        """The zigzag currents of the modern scatter over three ranks at
        time steps that scale the fluxes ``q (b - a) / dt`` up and down."""
        _modern_scatter_groups(compiled, case, 3, 1.0, "zigzag", dt)


# ----------------------------------------------------------------------
# exceptional inputs: the C loop declines, NumPy answers as it always did
# ----------------------------------------------------------------------
class TestEveryClone:
    """Both steppers' passes' byte tests and the loader's self-check on one
    library per clone target this CPU runs (``clone``): the loaded library
    binds only the widest, so the others are built alone to be tested at
    all."""

    def test_self_check(self, clone):
        assert self_check(clone) is None

    @settings(max_examples=40, deadline=None)
    @given(*SCATTER_CASES)
    def test_scatter(self, clone, case, p, charge_scale, inside):
        _scatter_bytes(clone, case, p, charge_scale, inside)

    @settings(max_examples=40, deadline=None)
    @given(*GATHER_PUSH_CASES)
    def test_gather_push(self, clone, case, dt, inside):
        _gather_push_bytes(clone, case, dt, inside)

    @settings(max_examples=20, deadline=None)
    @given(*MODERN_SCATTER_CASES)
    def test_modern_scatter(self, clone, case, p, charge_scale):
        _modern_scatter_bytes(clone, case, p, charge_scale)

    @settings(max_examples=20, deadline=None)
    @given(*YEE_GATHER_PUSH_CASES)
    def test_yee_gather_push(self, clone, case, dt):
        _yee_gather_push_bytes(clone, case, dt)

    def test_boris_push_in_every_lane(self, clone):
        for n in LANES:
            _boris_push_lanes(clone, n)

    def test_push_wraps_the_box_edges(self, clone):
        _wrap_edges(clone)


class TestDeclined:
    grid = GRIDS[1]

    def test_shard_cuts_that_do_not_fit_are_declined(self, compiled):
        """Rank cuts or particle starts that do not ascend from 0 to the
        end, starts that are not the rank segments' offsets (shards would
        number their slots over each other), or a negative count in shards
        that sum right: both passes, in either stepper's mode, write nothing
        (the era gather + push reads the starts alone)."""
        parts = _particles(self.grid, 50, 6)
        counts = np.array([20, 0, 30], dtype=np.int64)
        owner = CurveBlockDecomposition(self.grid, 3, "hilbert").owner_map
        planes = tuple(_planes(_fields(self.grid, 6))[:6])
        before = parts.copy()
        for ranks, starts in (
            ([0, 1, 3], [0, 21, 50]),  # not the offsets at the cuts
            ([0, 2, 1, 3], [0, 20, 20, 50]),  # cuts descending
            ([0, 1, 2], [0, 20, 20]),  # cuts short of the last rank
            ([0, 1, 3], [0, 20, 49]),  # starts short of the last particle
        ):
            ranks, starts = np.array(ranks), np.array(starts)
            shards = Shards(ranks, starts, None, np.zeros((len(ranks) - 1, 3), np.int64))
            for moved in (None, (parts.x.copy(), parts.y.copy(), 0.3)):
                acc = np.full((4, self.grid.nnodes), np.nan)
                assert compiled.scatter(self.grid, parts, counts, owner, acc, shards, moved) is None
                assert np.isnan(acc).all()
            cells = np.empty((4, parts.n), dtype=np.int64)
            args = (self.grid, parts, planes, 0.3, shards)
            assert compiled.gather_push(*args, cells, counts, owner) is None
            if not ((np.diff(starts) >= 0).all() and starts[-1] == parts.n):
                assert compiled.gather_push(*args) is None
        shards = Shards(np.array([0, 1, 3]), np.array([0, 20, 50]), None, np.zeros((2, 3), np.int64))
        negative = np.array([20, -5, 35], dtype=np.int64)  # each shard still sums to its length
        acc = np.full((4, self.grid.nnodes), np.nan)
        assert compiled.scatter(self.grid, parts, negative, owner, acc, shards) is None
        assert np.isnan(acc).all()
        cells = np.empty((4, parts.n), dtype=np.int64)
        assert compiled.gather_push(self.grid, parts, planes, 0.3, shards, cells, negative, owner) is None
        _same([getattr(parts, c) for c in PUSHED], [getattr(before, c) for c in PUSHED])

    def test_bad_node_ids_raise_numpys_index_error(self, compiled):
        """Node ids outside the grid reach only the NumPy interpolation, which
        raises (or counts from the end) as it always did; an owner map that
        does not cover the grid the scatter declines, and NumPy raises."""
        parts = _particles(self.grid, 50, 0)
        nodes, weights = _cic_numpy(self.grid, parts.x, parts.y)
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
        assert compiled.scatter(self.grid, parts, counts, short, acc) is None
        with pytest.raises(IndexError):
            scatter_segment(self.grid, parts, counts, short, acc)

    def test_bad_destinations_raise_what_numpy_raises(self):
        """Destination tables reach only the NumPy deposit (the compiled
        scatter numbers its own): a pair beyond the table is NumPy's
        IndexError, a negative destination its ValueError, and either
        leaves the caller's row as it was."""
        parts = _particles(self.grid, 50, 1)
        vertices = _cic_numpy(self.grid, parts.x, parts.y)
        dest = self.grid.cell_vertices(np.arange(self.grid.ncells))
        acc = np.random.default_rng(1).normal(size=(4, self.grid.nnodes))
        before = acc.copy()
        with pytest.raises(IndexError):
            deposit_numpy(self.grid, parts, vertices, dest, np.full(50, self.grid.ncells), acc, 0)
        broken, cells = dest.copy(), vertices[0][:, 0].copy()
        broken[0, 0] = -5
        with pytest.raises(ValueError):
            deposit_numpy(self.grid, parts, vertices, broken, cells, acc, 0)
        _same((acc,), (before,))

    def test_ghost_slots_declines_to_the_numpy_body(self, compiled):
        """Owners the Yee gather cannot number slots under (a negative one,
        or one so large that NumPy's keys overflow int64), counts or owners
        that are not int64 and cells that are not contiguous: the compiled
        pass declines with nothing written, and the public one answers with
        the NumPy body's particles, cells and ``ghost_slots_numpy``'s slots."""
        grid = self.grid
        owner = CurveBlockDecomposition(grid, 3, "hilbert").owner_map
        counts = np.array([20, 0, 30], dtype=np.int64)
        parts = _on_faces(grid, 50, 7)
        planes = tuple(_node_values(grid, 6, 7).reshape(6, *grid.shape))
        negative, huge = owner.copy(), owner.copy()
        negative[5], huge[5] = -1, 2**61
        contiguous = lambda: np.full((4, 50), -1, dtype=np.int64)  # noqa: E731
        strided = lambda: np.full((4, 100), -1, dtype=np.int64)[:, ::2]  # noqa: E731
        declined = [
            (negative, counts, contiguous),
            (huge, counts, contiguous),
            (owner.astype(np.int32), counts, contiguous),
            (owner, counts.astype(np.int32), contiguous),
            (owner, counts, strided),
        ]
        want, want_cells = parts.copy(), np.empty((4, 50), dtype=np.int64)
        gather_push_numpy(grid, want, _node_fields(planes), 0.3, want_cells)
        for bad_owner, bad_counts, make_cells in declined:
            got, cells = parts.copy(), make_cells()
            shards = Shards.one(3, 50)
            assert compiled.gather_push(grid, got, planes, 0.3, shards, cells, bad_counts, bad_owner) is None
            assert (cells == -1).all()
            _same([getattr(got, c) for c in PUSHED], [getattr(parts, c) for c in PUSHED])
            slots = gather_push_slice(grid, got, planes, 0.3, None, cells, bad_counts, bad_owner)
            want_slots = ghost_slots_numpy(grid, bad_owner, np.repeat(np.arange(3), counts), want_cells)
            _same([*slots, np.ascontiguousarray(cells)], [*want_slots[:3], want_cells])
            _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_a_stopped_shard_takes_the_numpy_slots(self, compiled, poison):
        """Three shards run in turn, the middle one stopped at a non-finite
        position: the other two are pushed and number their slots, but the
        public pass returns, and warns, as the NumPy body over all the
        particles -- their bytes, their cells and ``ghost_slots_numpy``'s
        slots of those."""
        grid, n = self.grid, 90
        counts = np.array([30, 0, 35, 25], dtype=np.int64)
        owner = CurveBlockDecomposition(grid, 5, "hilbert").owner_map  # rank 4 idle
        cuts = np.array([0, 1, 3, 4])  # shard 1: ranks 1 and 2, particles 30 .. 64
        starts = np.cumsum([0, *counts])[cuts]
        parts = _on_faces(grid, n, 9)
        parts.x[40] = poison
        planes = tuple(_node_values(grid, 6, 9).reshape(6, *grid.shape))
        got, cells, shards = parts.copy(), np.empty((2, 4, n), dtype=np.int64), _shards(cuts, starts)
        fields, slots = compiled.gather_push(grid, got, planes, 0.3, shards, cells[0], counts, owner)
        assert slots is None and shards.out[:, 0].tolist() == [30, 0, 25]
        want = parts.copy()
        _, numpy_said = self._warned(lambda: gather_push_numpy(grid, want, fields, 0.3, cells[1]))
        want_slots = ghost_slots_numpy(grid, owner, np.repeat(np.arange(4), counts), cells[1])
        got = parts.copy()
        args = (grid, got, planes, 0.3, _shards(cuts, starts), cells[0], counts, owner)
        slots, we_said = self._warned(lambda: gather_push_slice(*args))
        assert we_said == numpy_said != []
        _same(
            [*slots, cells[0], *(getattr(got, c) for c in PUSHED)],
            [*want_slots[:3], cells[1], *(getattr(want, c) for c in PUSHED)],
        )

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_warn_as_numpy_does(self, compiled, poison):
        """A position the scatter's CIC cannot place: the compiled pass
        declines, and the public one answers, and warns, as its NumPy body."""
        parts = _particles(self.grid, 20, 2)
        parts.y[11] = poison
        owner = CurveBlockDecomposition(self.grid, 2, "hilbert").owner_map
        counts = np.array([8, 12], dtype=np.int64)
        acc, want_acc = np.empty((2, 4, self.grid.nnodes))
        assert compiled.scatter(self.grid, parts, counts, owner, acc) is None
        want, numpy_said = self._warned(
            lambda: scatter_numpy(self.grid, parts, counts, owner, want_acc)
        )
        (_, entries, unique, batch), we_said = self._warned(
            lambda: scatter_segment(self.grid, parts, counts, owner, acc)
        )
        assert we_said == numpy_said != []
        _same(
            (acc, batch.ids, batch.values, entries, unique),
            (want_acc, want[3], want[0], *want[4:]),
        )

    @pytest.mark.parametrize(
        "column, value",
        [("ux", np.nan), ("x", np.inf), ("uz", 1e200), ("q", np.inf), ("q", np.nan), ("m", np.nan)],
    )
    def test_push_declines_before_writing(self, compiled, column, value):
        """Non-finite state, and an overflow whose results are finite again
        (NumPy warns about the square): the gather + push may have written
        nothing, and the public pass answers, and warns, as its NumPy body.
        A NaN momentum, charge or mass goes through the push quietly, into
        NaN positions and momenta."""
        got, want = _particles(self.grid, 40, 3), _particles(self.grid, 40, 3)
        for parts in (got, want):
            getattr(parts, column)[9] = value
        before, shards = got.copy(), Shards.one(1, 40)
        planes = tuple(np.random.default_rng(3).normal(size=(6, *self.grid.shape)))
        assert compiled.gather_push(self.grid, got, planes, 0.3, shards) is not None
        assert shards.out[0, 0] == 0
        _same([getattr(got, c) for c in PUSHED], [getattr(before, c) for c in PUSHED])
        fields = _node_fields(planes)
        _, numpy_said = self._warned(lambda: gather_push_numpy(self.grid, want, fields, 0.3))
        _, we_said = self._warned(lambda: gather_push_slice(self.grid, got, planes, 0.3))
        assert we_said == numpy_said
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    def test_non_finite_fields_and_momenta_take_the_numpy_floats(self, compiled):
        """Poisoned E and B at the particles: the gather + push writes
        nothing, and the public pass answers and warns as the NumPy body."""
        parts = _particles(self.grid, 30, 4)
        nodes, _ = _cic_numpy(self.grid, parts.x, parts.y)
        planes = np.random.default_rng(4).normal(size=(6, *self.grid.shape))
        planes[2].flat[nodes[5, 1]] = np.nan
        planes[4].flat[nodes[8, 0]] = -np.inf
        planes = tuple(planes)
        got, want, shards = parts.copy(), parts.copy(), Shards.one(1, 30)
        fields, _ = compiled.gather_push(self.grid, got, planes, 0.3, shards)
        _same((fields,), (_node_fields(planes),))
        assert shards.out[0, 0] == 0
        _same([getattr(got, c) for c in PUSHED], [getattr(parts, c) for c in PUSHED])
        _, numpy_said = self._warned(lambda: gather_push_numpy(self.grid, want, fields, 0.3))
        _, we_said = self._warned(lambda: gather_push_slice(self.grid, got, planes, 0.3))
        assert we_said == numpy_said
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])
        parts.ux[7] = 1e200  # ux**2 overflows: NumPy warns, so must we
        acc = np.empty((4, self.grid.nnodes))
        counts = np.array([30], dtype=np.int64)
        owner = np.zeros(self.grid.nnodes, dtype=np.int64)
        assert compiled.scatter(self.grid, parts, counts, owner, acc) is None

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
        before, shards = got.copy(), Shards.one(1, n)
        planes = tuple(np.random.default_rng(8).normal(size=(6, *self.grid.shape)))
        fields = _node_fields(planes)
        assert compiled.gather_push(self.grid, got, planes, 0.3, shards) is not None
        assert shards.out[0, 0] == 256 * chunk
        clean = before.copy()
        self._warned(lambda: gather_push_numpy(self.grid, clean, fields, 0.3))
        head, tail = slice(0, 256 * chunk), slice(256 * chunk, n)
        _same([getattr(got, c)[head] for c in PUSHED], [getattr(clean, c)[head] for c in PUSHED])
        _same([getattr(got, c)[tail] for c in PUSHED], [getattr(before, c)[tail] for c in PUSHED])
        got = before
        _, numpy_said = self._warned(lambda: gather_push_numpy(self.grid, want, fields, 0.3))
        _, we_said = self._warned(lambda: gather_push_slice(self.grid, got, planes, 0.3))
        assert we_said == numpy_said != []
        _same([getattr(got, c) for c in PUSHED], [getattr(want, c) for c in PUSHED])

    def test_views_and_other_dtypes_are_not_copied_in(self, compiled):
        """Strided, float32 or read-only arguments take the NumPy body —
        never a silent copy-in / copy-out of the in-place push."""
        parts = _particles(self.grid, 64, 5)
        strided = ParticleArray.from_block(parts.block[:, ::2])
        planes = tuple(_planes(_fields(self.grid, 5))[:6])
        read_only = parts.copy()
        read_only.uz.flags.writeable = False
        before = parts.copy()
        for bad_parts, bad_planes in (
            (strided, planes),
            (read_only, planes),
            (parts, (*planes[:5], planes[5].T)),
            (parts, planes[:5]),
            (parts, tuple(a.astype(np.float32) for a in planes)),
        ):
            shards = Shards.one(1, bad_parts.n)
            assert compiled.gather_push(self.grid, bad_parts, bad_planes, 0.2, shards) is None
        _same([getattr(parts, c) for c in PUSHED], [getattr(before, c) for c in PUSHED])
        reference = strided.copy()
        gather_push_slice(self.grid, strided, planes, 0.2)  # the public pass still serves the view
        gather_push_numpy(self.grid, reference, _node_fields(planes), 0.2)
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
            want = binomial_smooth_numpy(source)
        with warnings.catch_warnings(record=True) as we_said:
            warnings.simplefilter("always")
            got = binomial_smooth(source)
        assert [str(w.message) for w in we_said] == [str(w.message) for w in numpy_said]
        _same((got,), (want,))

    def test_stencils_decline_what_they_do_not_cover(self, compiled):
        """Strided views, float32, read-only E or B, planes sharing memory
        and grids 2 nodes wide or high take the NumPy body, untouched before
        it; the public functions still answer with its bytes."""
        grid, solver = self.grid, MaxwellSolver(self.grid)
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
        strided = (wide[0, :, ::2], wide[6:, :, ::2])  # one plane, a block of four
        for a in (*strided, base.ex.astype(np.float32), thin[0][0], thin[1][0], nested):
            assert compiled.smooth(a) is None
            _same((binomial_smooth(a),), (binomial_smooth_numpy(np.asarray(a, dtype=float)),))

    @staticmethod
    def _warned(call):
        """``call()``'s answer and the warnings it raised."""
        with warnings.catch_warnings(record=True) as said:
            warnings.simplefilter("always")
            answer = call()
        return answer, [str(w.message) for w in said]

    @pytest.mark.parametrize("poison", ["x", "y", "field"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_yee_gather_declines_non_finite_inputs_untouched(self, compiled, poison, value):
        """A position, or a field value a stencil reads, that is not finite:
        the Yee gather + push stops at its chunk with the particles as they
        were, and the public pass answers, and warns, as the NumPy body."""
        grid = self.grid
        parts = _on_faces(grid, 30, 5)
        values = _node_values(grid, 6, 5)
        (sx, sy), _ = STENCILS[0]  # by's stencil, shifted by half a cell along x
        cells = np.empty((2, 4, 30), dtype=np.int64)
        if poison == "field":  # a vertex of particle 12's by stencil
            column = np.floor(np.mod(parts.x[12] - sx * grid.dx, grid.lx) / grid.dx) + 1
            row = np.floor(np.mod(parts.y[12] - sy * grid.dy, grid.ly) / grid.dy)
            values[4, int(row % grid.ny) * grid.nx + int(column % grid.nx)] = value
        else:
            getattr(parts, poison)[12] = value
        planes = tuple(values.reshape(6, *grid.shape))
        got, want, shards = parts.copy(), parts.copy(), Shards.one(1, 30)
        counts, owner = np.array([30]), np.zeros(grid.nnodes, dtype=np.int64)
        assert compiled.gather_push(grid, got, planes, 0.3, shards, cells[0], counts, owner)[1] is None
        assert shards.out[0, 0] == 0
        _same([getattr(got, c) for c in PUSHED], [getattr(parts, c) for c in PUSHED])
        fields = _node_fields(planes)
        _, numpy_said = self._warned(lambda: gather_push_numpy(grid, want, fields, 0.3, cells[1]))
        args = (grid, got, planes, 0.3, None, cells[0], counts, owner)
        slots, we_said = self._warned(lambda: gather_push_slice(*args))
        assert we_said == numpy_said
        _same([cells[0], *(getattr(got, c) for c in PUSHED)], [cells[1], *(getattr(want, c) for c in PUSHED)])
        assert all(row.size == 0 for row in slots)  # rank 0 owns every node

    def _moved(self, n, seed):
        """Particles at the ends of :func:`_segments`' moves, their starts
        and the owners and counts of three ranks (one empty)."""
        x_old, y_old, x_new, y_new, _ = _segments(self.grid, n, seed)
        parts = _particles(self.grid, n, seed)
        parts.x[:], parts.y[:] = x_new, y_new
        owner = CurveBlockDecomposition(self.grid, 3, "hilbert").owner_map
        counts = np.array([n // 3, 0, n - n // 3], dtype=np.int64)
        return parts, x_old, y_old, owner, counts

    def _modern_scatter_declines(self, compiled, parts, x_old, y_old, owner, counts):
        """The modern scatter declines these moves, and the public pass
        raises, or answers and warns, as its NumPy body does."""
        grid, moved = self.grid, (x_old, y_old, 0.4)
        acc = np.empty((4, grid.nnodes))
        assert compiled.scatter(grid, parts, counts, owner, acc, None, moved) is None
        want_acc = np.empty_like(acc)
        try:
            want, numpy_said = self._warned(
                lambda: scatter_yee_numpy(grid, parts, counts, owner, want_acc, *moved)
            )
        except ValueError:
            with pytest.raises(ValueError, match="less than one cell"):
                scatter_segment(grid, parts, counts, owner, acc, moved=moved)
            return
        (_, _, _, batch), we_said = self._warned(
            lambda: scatter_segment(grid, parts, counts, owner, acc, moved=moved)
        )
        assert we_said == numpy_said
        _same((acc, batch.ids, batch.values), (want_acc, want[3], want[0]))

    @pytest.mark.parametrize("poison", ["x_old", "y_old", "w", "a move of a cell"])
    def test_modern_scatter_declines_to_its_numpy_body(self, compiled, poison):
        """A start or a charge that is not finite, or a move of a cell."""
        parts, x_old, y_old, owner, counts = self._moved(60, 6)
        if poison == "a move of a cell":
            x_old[23] = parts.x[23] - self.grid.dx
        else:
            {"x_old": x_old, "y_old": y_old, "w": parts.w}[poison][17] = np.inf
        self._modern_scatter_declines(compiled, parts, x_old, y_old, owner, counts)

    @pytest.mark.parametrize("where", ["x_old", "y_old", "charge", "x_new", "y_new"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_zigzag_declines_non_finite_inputs_untouched(self, compiled, where, value):
        """A start, an end or a charge (``w``: ``q`` is +-1) that is not
        finite: the modern scatter declines to its NumPy body."""
        parts, x_old, y_old, owner, counts = self._moved(60, 3)
        columns = {"x_old": x_old, "y_old": y_old, "charge": parts.w, "x_new": parts.x}
        {**columns, "y_new": parts.y}[where][17] = value
        self._modern_scatter_declines(compiled, parts, x_old, y_old, owner, counts)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("cells", [1.0, -1.0, 1.5, -3.0, "next below one"])
    def test_zigzag_declines_moves_of_a_cell(self, compiled, axis, cells):
        """A move NumPy measures at one cell or more raises its ValueError,
        the modern scatter having declined; one just under a cell goes
        whichever way NumPy's remainder takes it, on both paths alike."""
        grid = self.grid
        parts, x_old, y_old, owner, counts = self._moved(60, 4)
        d = (grid.dx, grid.dy)[axis]
        move = np.nextafter(d, 0.0) if cells == "next below one" else cells * d
        (parts.x, parts.y)[axis][23] = (x_old, y_old)[axis][23] + move
        moved = (x_old, y_old, 0.4)
        want_acc = np.empty((4, grid.nnodes))
        try:
            want = scatter_yee_numpy(grid, parts, counts, owner, want_acc, *moved)
        except ValueError:
            self._modern_scatter_declines(compiled, parts, x_old, y_old, owner, counts)
        else:
            assert cells == "next below one"
            acc = np.empty_like(want_acc)
            got = compiled.scatter(grid, parts, counts, owner, acc, None, moved)
            assert got is not None
            _same((*got[:4], acc), (*want[:4], want_acc))

    def test_modern_kernels_take_no_view_or_other_dtype(self, compiled):
        """float32 or strided starts take the NumPy body; the public pass
        answers with its bytes."""
        grid = self.grid
        parts, x_old, y_old, owner, counts = self._moved(64, 7)
        strided = np.repeat(x_old, 2)[::2]
        acc, want_acc = np.empty((2, 4, grid.nnodes))
        for moved in ((x_old.astype(np.float32), y_old, 0.4), (strided, y_old, 0.4)):
            assert compiled.scatter(grid, parts, counts, owner, acc, None, moved) is None
        want = scatter_segment(grid, parts, counts, owner, want_acc, moved=(x_old, y_old, 0.4))
        got = scatter_segment(grid, parts, counts, owner, acc, moved=(strided, y_old, 0.4))
        _same((acc, got[3].ids, got[3].values), (want_acc, want[3].ids, want[3].values))


# ----------------------------------------------------------------------
# the loader's failure taxonomy
# ----------------------------------------------------------------------
def _smooth_works_without(monkeypatch, answer):
    """With ``answer`` installed as the loader's, results are the NumPy bodies'."""
    monkeypatch.setattr(native, "_loaded", answer)
    planes = np.stack(_planes(_fields(GRIDS[1], 6))[6:])
    assert native.kernels() is None and native.status() is answer[1]
    _same((binomial_smooth(planes),), (binomial_smooth_numpy(planes),))


def _built_cache(tmp_path) -> Path:
    """A private cache holding a whole library: this host's, copied rather
    than built again (the first TestLoader test builds one)."""
    found, status = native.load()
    if not status.active:
        pytest.skip(f"no compiled kernels on this host: {status.reason}")
    cache = tmp_path / "cache"
    cache.mkdir(0o700)
    shutil.copy2(status.library, cache)
    return cache


class TestLoader:
    def test_builds_into_a_private_cache_and_leaves_nothing_else(self, tmp_path):
        cache = tmp_path / "cache"
        found, status = native.load(cache)
        if not status.active:
            pytest.skip(f"no compiled kernels on this host: {status.reason}")
        (library,) = cache.iterdir()
        assert str(library) == status.library
        assert library.suffix == ".so" and stat.S_IMODE(cache.stat().st_mode) == 0o700
        assert not library.stat().st_mode & 0o022
        again, status = native.load(cache, cc="/nonexistent/cc")  # cached under its own name
        assert not status.active

    def test_compiler_missing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        answer = native.load(tmp_path / "cache")
        assert answer[0] is None and not answer[1].active and "no C compiler" in answer[1].reason
        _smooth_works_without(monkeypatch, answer)

    def test_compiler_cannot_be_run(self, tmp_path, monkeypatch):
        answer = native.load(tmp_path / "cache", cc=str(tmp_path / "no-such-cc"))
        assert not answer[1].active and "did not run" in answer[1].reason
        assert list((tmp_path / "cache").iterdir()) == []
        _smooth_works_without(monkeypatch, answer)

    def test_compiler_exits_non_zero(self, tmp_path, monkeypatch):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\necho 'pic_kernels.c:1: error: no' >&2\nexit 3\n")
        fake.chmod(0o700)
        answer = native.load(tmp_path / "cache", cc=str(fake))
        assert not answer[1].active
        assert "exited 3" in answer[1].reason and "error: no" in answer[1].reason
        assert list((tmp_path / "cache").iterdir()) == []  # no temporary left behind
        _smooth_works_without(monkeypatch, answer)

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
        planes = np.stack(_planes(_fields(GRIDS[1], 6))[6:])
        _same((found.smooth(planes),), (binomial_smooth_numpy(planes),))

        # a damaged library that sorts before an intact one does not hide it
        truncate(rebuilt.name.rpartition("-")[0] + "-0000000000000000.so")
        status = native.load(cache, cc=str(wrapper))[1]
        assert status.active and list(cache.iterdir()) == [rebuilt]

        truncate(rebuilt.name)
        wrapper.write_text("#!/bin/sh\nexit 3\n")
        answer = native.load(cache, cc=str(wrapper))
        assert not answer[1].active and "exited 3" in answer[1].reason
        assert list(cache.iterdir()) == []  # the next process starts clean
        _smooth_works_without(monkeypatch, answer)

    def test_library_without_the_entry_points(self, compiled, tmp_path, monkeypatch):
        """A compiler that builds something else: loading must not trust it."""
        fake = tmp_path / "cc"
        cc = shutil.which("cc")  # the output path is the argument after the loader's -o
        script = 'cat > /dev/null\nwhile [ "$1" != -o ]; do shift; done\n'
        fake.write_text(f'#!/bin/sh\n{script}exec {cc} -shared -x c /dev/null -o "$2"\n')
        fake.chmod(0o700)
        answer = native.load(tmp_path / "cache", cc=str(fake))
        assert not answer[1].active and "cannot load" in answer[1].reason
        _smooth_works_without(monkeypatch, answer)

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
    def test_cache_writable_by_others(self, tmp_path, monkeypatch, mode):
        cache = _built_cache(tmp_path)
        cache.chmod(mode)
        answer = native.load(cache)
        assert not answer[1].active and "not a private" in answer[1].reason
        _smooth_works_without(monkeypatch, answer)

    def test_cache_owned_by_another_user(self, tmp_path, monkeypatch):
        cache = _built_cache(tmp_path)
        me = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: me + 1)
        answer = native.load(cache)
        assert not answer[1].active and "not a private" in answer[1].reason
        monkeypatch.undo()
        _smooth_works_without(monkeypatch, answer)

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
        _smooth_works_without(monkeypatch, answer)

    def test_a_source_of_another_interface_is_not_called(self, compiled, tmp_path, monkeypatch):
        """``pic_kernels.c`` edited after ``calls`` was imported: the library
        built from it is dropped before the self-check calls it with
        arguments it may no longer take (which can abort the process)."""
        from repro.native.calls import INTERFACE

        text, datum = native.SOURCE.read_text(), "const int64_t pic_kernels_interface = {};"
        assert datum.format(INTERFACE) in text
        edited = tmp_path / "pic_kernels.c"
        edited.write_text(text.replace(datum.format(INTERFACE), datum.format(INTERFACE + 1)))
        monkeypatch.setattr(native, "SOURCE", edited)
        answer = native.load(tmp_path / "cache")
        assert not answer[1].active
        assert f"has interface {INTERFACE + 1}, not {INTERFACE}" in answer[1].reason
        monkeypatch.undo()
        _smooth_works_without(monkeypatch, answer)

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
    """The first ``native.kernels()`` of a process may come from two threads
    at once (two simulations stepping side by side): one of them builds,
    loads and self-checks, the other waits for that answer.  A backend asks
    once when it starts its team and once per sharded call: its helpers
    never ask."""
    from repro.native import calls
    from repro.parallel_exec import FlatBackend
    from repro.particles import ParticlePool

    events = []
    build, check = native._build, calls.self_check
    monkeypatch.setattr(native, "_build", lambda *a: events.append("build") or build(*a))
    monkeypatch.setattr(calls, "self_check", lambda k: events.append("check") or check(k))
    monkeypatch.setattr(native, "load", lambda load=native.load: load(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loaded", None)  # as in a process that has not asked yet

    got, start = [], threading.Barrier(2)

    def spy(*args, kernels=native.kernels):
        got.append(kernels())
        return got[-1]

    def first_ask():
        start.wait()
        spy()

    monkeypatch.setattr(native, "kernels", spy)
    racers = [threading.Thread(target=first_ask) for _ in range(2)]
    for racer in racers:
        racer.start()
    for racer in racers:
        racer.join()
    assert events == ["build", "check"]
    assert len(got) == 2 and got[0] is not None and got[1] is got[0]

    grid = GRIDS[0]
    pool = ParticlePool(_particles(grid, 600, seed=2), np.array([0, 300, 600]))
    backend = FlatBackend(2, grid)
    try:
        backend.scatter(pool, np.zeros(grid.nnodes, dtype=np.int64))
    finally:
        backend.close()
    assert events == ["build", "check"]
    assert len(got) == 4 and all(k is got[0] for k in got)


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
