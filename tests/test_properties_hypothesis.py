"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.indexing import (
    get_scheme,
    hilbert_d_to_xy,
    hilbert_decode_nd,
    hilbert_encode_nd,
    hilbert_xy_to_d,
)
from repro.machine import MachineModel, VirtualMachine
from repro.machine.collectives import exchange_by_destination_pooled
from repro.mesh import Grid2D
from repro.mesh.decomposition import balanced_splits
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.core.load_balance import order_maintaining_balance
from repro.pic.ghost import DirectAddressTable, HashGhostTable
from tests._looped_oracle import keyed_block

orders = st.integers(min_value=1, max_value=8)


class TestHilbertProperties:
    @given(order=orders, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_points(self, order, data):
        n = 1 << order
        npts = data.draw(st.integers(1, 64))
        x = data.draw(arrays(np.int64, npts, elements=st.integers(0, n - 1)))
        y = data.draw(arrays(np.int64, npts, elements=st.integers(0, n - 1)))
        d = hilbert_xy_to_d(order, x, y)
        x2, y2 = hilbert_d_to_xy(order, d)
        assert np.array_equal(x, x2) and np.array_equal(y, y2)

    @given(order=orders, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_distance_in_range(self, order, data):
        n = 1 << order
        npts = data.draw(st.integers(1, 32))
        x = data.draw(arrays(np.int64, npts, elements=st.integers(0, n - 1)))
        y = data.draw(arrays(np.int64, npts, elements=st.integers(0, n - 1)))
        d = hilbert_xy_to_d(order, x, y)
        assert d.min() >= 0 and d.max() < n * n

    @given(order=st.integers(1, 5), ndim=st.integers(2, 3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_nd_roundtrip_random(self, order, ndim, data):
        npts = data.draw(st.integers(1, 32))
        coords = data.draw(
            arrays(np.int64, (npts, ndim), elements=st.integers(0, (1 << order) - 1))
        )
        d = hilbert_encode_nd(coords, order)
        back = hilbert_decode_nd(d, order, ndim)
        assert np.array_equal(coords, back)


class TestSchemeBijectivity:
    @given(
        scheme_name=st.sampled_from(["hilbert", "snake", "rowmajor", "morton"]),
        nx=st.integers(2, 24),
        ny=st.integers(2, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_keys_unique_over_grid(self, scheme_name, nx, ny):
        scheme = get_scheme(scheme_name)
        iy, ix = np.divmod(np.arange(nx * ny, dtype=np.int64), nx)
        keys = scheme.keys(ix, iy, nx, ny)
        assert np.unique(keys).size == nx * ny


class TestBalancedSplits:
    @given(n=st.integers(0, 10000), p=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_partition_properties(self, n, p):
        bounds = balanced_splits(n, p)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert sizes.min() >= 0
        assert sizes.max() - sizes.min() <= 1


class TestExchangeConservation:
    @given(
        p=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_conserved(self, p, data):
        vm = VirtualMachine(p, MachineModel.cm5())
        arrays_, dests = [], []
        for r in range(p):
            n = data.draw(st.integers(0, 20))
            arrays_.append(np.arange(n, dtype=float).reshape(1, n) + 100 * r)
            dests.append(
                np.array(
                    data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
                    dtype=np.int64,
                )
            )
        offsets = np.cumsum([0] + [a.shape[1] for a in arrays_])
        (out,), _ = exchange_by_destination_pooled(
            vm, (np.concatenate(arrays_, axis=1),), np.concatenate(dests), offsets
        )
        sent = np.sort(np.concatenate([a.ravel() for a in arrays_]))
        got = np.sort(out.ravel())
        assert np.array_equal(sent, got)


class TestGhostTableEquivalence:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_hash_equals_direct(self, data):
        nnodes = data.draw(st.integers(1, 200))
        k = data.draw(st.integers(0, 200))
        nodes = np.array(
            data.draw(st.lists(st.integers(0, nnodes - 1), min_size=k, max_size=k)),
            dtype=np.int64,
        )
        values = data.draw(
            arrays(np.float64, (2, k), elements=st.floats(-10, 10, allow_nan=False))
        )
        direct = DirectAddressTable(nnodes, 2)
        hashed = HashGhostTable(nnodes, 2)
        direct.accumulate(nodes, values)
        hashed.accumulate(nodes, values)
        du, dv = direct.flush()
        hu, hv = hashed.flush()
        assert np.array_equal(du, hu)
        assert np.allclose(dv, hv, atol=1e-12)


class TestSortingPipelines:
    @given(p=st.integers(1, 5), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_balance_preserves_order_and_counts(self, p, data):
        vm = VirtualMachine(p, MachineModel.cm5())
        chunks = []
        for _ in range(p):
            n = data.draw(st.integers(0, 30))
            chunks.append(n)
        total = sum(chunks)
        all_keys = np.sort(
            np.array(data.draw(st.lists(st.integers(0, 1000), min_size=total, max_size=total)), dtype=np.int64)
        )
        keys, payloads, start = [], [], 0
        for n in chunks:
            keys.append(all_keys[start : start + n])
            payloads.append(all_keys[start : start + n].reshape(1, -1).astype(float))
            start += n
        out = order_maintaining_balance(vm, keyed_block(keys, payloads))
        assert np.array_equal(out.keys, all_keys)
        assert np.array_equal(out.values.ravel(), all_keys.astype(float))
        counts = out.counts
        assert max(counts) - min(counts) <= 1

    @given(p=st.integers(1, 4), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_incremental_sort_total_order(self, p, data):
        vm = VirtualMachine(p, MachineModel.cm5())
        olds, new_keys = [], []
        for _ in range(p):
            n = data.draw(st.integers(0, 25))
            old = np.sort(
                np.array(data.draw(st.lists(st.integers(0, 500), min_size=n, max_size=n)), dtype=np.int64)
            )
            olds.append(old)
            deltas = np.array(
                data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                dtype=np.int64,
            )
            new_keys.append(np.maximum(old + deltas, 0))
        block = keyed_block(new_keys, [k.reshape(1, -1).astype(float) for k in olds])
        state = BucketState.build(np.concatenate(olds), block.offsets, 4)
        out, stats = bucket_incremental_sort(vm, state, block)
        assert np.array_equal(out.keys, np.sort(block.keys))
        assert out.keys.dtype == np.int64
        assert stats.total == state.n


class TestAdaptiveQuantiles:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounds_valid_for_any_load(self, data):
        from repro.core.adaptive import AdaptiveMeshRebalancer

        nx = data.draw(st.sampled_from([8, 16]))
        ny = data.draw(st.sampled_from([8, 16]))
        grid = Grid2D(nx, ny)
        p = data.draw(st.sampled_from([2, 4, 8]))
        ratio = data.draw(st.sampled_from([1.5, 2.0, 4.0]))
        reb = AdaptiveMeshRebalancer(grid, max_cell_ratio=ratio)
        counts = np.array(
            data.draw(
                st.lists(st.integers(0, 100), min_size=grid.ncells, max_size=grid.ncells)
            ),
            dtype=np.int64,
        )
        bounds = reb.quantile_bounds(counts, p)
        assert bounds[0] == 0 and bounds[-1] == grid.ncells
        assert np.all(np.diff(bounds) >= 0)
        cap = int(np.ceil(ratio * grid.ncells / p))
        assert np.diff(bounds).max() <= cap


class TestParticleArrayProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matrix_roundtrip_any_values(self, data):
        from repro.particles import ParticleArray

        n = data.draw(st.integers(0, 50))
        finite = st.floats(-1e12, 1e12, allow_nan=False)
        cols = {
            name: np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
            for name in ("x", "y", "ux", "uy", "uz", "q", "m", "w")
        }
        ids = np.array(
            data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        parts = ParticleArray(ids=ids, **cols)
        back = ParticleArray.from_block(np.ascontiguousarray(parts.block.T).T.copy())
        for name in ("ids", *ParticleArray.__slots__):
            assert np.array_equal(getattr(back, name), getattr(parts, name)), name

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_take_then_concat_is_permutation(self, data):
        from repro.particles import ParticleArray

        n = data.draw(st.integers(1, 60))
        parts = ParticleArray.empty(n)
        parts.x[:] = np.arange(n)
        perm = np.array(data.draw(st.permutations(list(range(n)))), dtype=np.int64)
        split = data.draw(st.integers(0, n))
        joined = ParticleArray.concat([parts.take(perm[:split]), parts.take(perm[split:])])
        assert np.array_equal(np.sort(joined.ids), np.arange(n))


class TestGridWrapProperties:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_wrap_is_idempotent_and_in_range(self, data):
        nx = data.draw(st.integers(2, 32))
        ny = data.draw(st.integers(2, 32))
        grid = Grid2D(nx, ny)
        n = data.draw(st.integers(1, 30))
        big = st.floats(-1e6, 1e6, allow_nan=False)
        x = np.array(data.draw(st.lists(big, min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(big, min_size=n, max_size=n)))
        xw, yw = grid.wrap_positions(x, y)
        assert np.all((xw >= 0) & (xw < grid.lx))
        assert np.all((yw >= 0) & (yw < grid.ly))
        xw2, yw2 = grid.wrap_positions(xw, yw)
        assert np.allclose(xw, xw2) and np.allclose(yw, yw2)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_cell_lookup_always_valid(self, data):
        nx = data.draw(st.integers(2, 32))
        ny = data.draw(st.integers(2, 32))
        grid = Grid2D(nx, ny)
        n = data.draw(st.integers(1, 30))
        big = st.floats(-1e6, 1e6, allow_nan=False)
        x = np.array(data.draw(st.lists(big, min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(big, min_size=n, max_size=n)))
        ids = grid.cell_id_of_positions(x, y)
        assert ids.min() >= 0 and ids.max() < grid.ncells


class TestCICInvariants:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_weights_partition_unity(self, data):
        nx = data.draw(st.integers(2, 32))
        ny = data.draw(st.integers(2, 32))
        grid = Grid2D(nx, ny)
        n = data.draw(st.integers(1, 50))
        x = data.draw(arrays(np.float64, n, elements=st.floats(-100, 100, allow_nan=False)))
        y = data.draw(arrays(np.float64, n, elements=st.floats(-100, 100, allow_nan=False)))
        nodes, weights = grid.cic_vertices_weights(x, y)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert weights.min() >= 0
        assert nodes.min() >= 0 and nodes.max() < grid.nnodes
