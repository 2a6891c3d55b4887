"""Tests for the particle block storage."""

import numpy as np
import pytest

from repro.particles import ParticleArray
from repro.particles.arrays import MAX_ID, ROWS


def make_particles(n, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleArray(
        x=rng.random(n),
        y=rng.random(n),
        ux=rng.normal(size=n),
        uy=rng.normal(size=n),
        uz=rng.normal(size=n),
        q=np.full(n, -1.0),
        m=np.ones(n),
        w=np.full(n, 2.0),
        ids=np.arange(n, dtype=np.int64),
    )


class TestConstruction:
    def test_empty(self):
        parts = ParticleArray.empty(5)
        assert parts.n == 5 and len(parts) == 5
        assert np.array_equal(parts.ids, np.arange(5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ParticleArray(
                np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), np.zeros(2),
                np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2, dtype=np.int64),
            )

    def test_dtype_coercion(self):
        parts = ParticleArray(
            np.array([1]), np.array([2]), np.array([0]), np.array([0]), np.array([0]),
            np.array([-1]), np.array([1]), np.array([1]), np.array([7]),
        )
        assert parts.x.dtype == np.float64 and parts.ids.dtype == np.int64


class TestOperations:
    def test_concat(self):
        a, b = make_particles(3), make_particles(2, seed=1)
        both = ParticleArray.concat([a, b])
        assert both.n == 5
        assert np.array_equal(both.x[:3], a.x)

    def test_concat_empty_list(self):
        assert ParticleArray.concat([]).n == 0

    def test_take_indices(self):
        parts = make_particles(10)
        sub = parts.take(np.array([3, 1]))
        assert sub.n == 2 and sub.ids.tolist() == [3, 1]

    def test_take_mask(self):
        parts = make_particles(10)
        sub = parts.take(parts.ids % 2 == 0)
        assert sub.n == 5

    def test_sorted_by(self):
        parts = make_particles(10)
        out = parts.sorted_by(-parts.ids.astype(float))
        assert out.ids.tolist() == list(range(9, -1, -1))

    def test_sorted_by_wrong_length(self):
        with pytest.raises(ValueError):
            make_particles(5).sorted_by(np.arange(3))

    def test_copy_independent(self):
        parts = make_particles(4)
        dup = parts.copy()
        dup.x[0] = 99.0
        assert parts.x[0] != 99.0


class TestWireFormat:
    def test_block_roundtrip(self):
        parts = make_particles(16)
        back = ParticleArray.from_block(parts.block.copy())
        for name in ROWS:
            assert np.array_equal(getattr(back, name), getattr(parts, name)), name

    def test_block_shape(self):
        parts = make_particles(7)
        assert parts.block.shape == (9, 7) and parts.block.flags.c_contiguous
        assert all(getattr(parts, name).base is parts.block for name in ROWS[:-1])

    def test_from_block_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ParticleArray.from_block(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="float64"):
            ParticleArray.from_block(np.zeros((9, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            ParticleArray.from_block(np.zeros(9))

    def test_empty_roundtrip(self):
        back = ParticleArray.from_block(ParticleArray.empty(0).block)
        assert back.n == 0

    def test_views_share_the_block(self):
        parts = make_particles(10)
        view = parts.slice_view(2, 6)
        view.x[:] = -1.0
        assert np.array_equal(parts.x[2:6], [-1.0] * 4)
        assert view.ids.tolist() == [2, 3, 4, 5] and view.ids.dtype == np.int64


class TestIdRange:
    """The float64 ids row holds every id up to 2**53 exactly; the
    constructor refuses the first one it would round."""

    @staticmethod
    def with_ids(ids):
        n = len(ids)
        z = np.zeros(n)
        return ParticleArray(z, z, z, z, z, z, z, z, np.array(ids, dtype=np.int64))

    @pytest.mark.parametrize("top", [MAX_ID, -MAX_ID])
    def test_two_to_the_53_is_exact(self, top):
        parts = self.with_ids([0, top, 5])
        assert parts.ids.tolist() == [0, top, 5]

    @pytest.mark.parametrize("bad", [MAX_ID + 1, -MAX_ID - 1, np.iinfo(np.int64).min])
    def test_beyond_two_to_the_53_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"first: {bad}"):
            self.with_ids([1, bad, MAX_ID + 3])


class TestPhysics:
    def test_gamma_at_rest(self):
        parts = ParticleArray.empty(3)
        assert np.allclose(parts.gamma(), 1.0)

    def test_gamma_formula(self):
        parts = ParticleArray.empty(1)
        parts.ux[:] = 3.0
        parts.uy[:] = 4.0
        assert parts.gamma()[0] == pytest.approx(np.sqrt(26.0))

    def test_kinetic_energy_zero_at_rest(self):
        assert ParticleArray.empty(10).kinetic_energy() == 0.0

    def test_kinetic_energy_weighted(self):
        parts = ParticleArray.empty(1)
        parts.ux[:] = 1.0
        parts.w[:] = 2.0
        parts.m[:] = 1.0
        assert parts.kinetic_energy() == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0))

    def test_momentum(self):
        parts = ParticleArray.empty(2)
        parts.w[:] = 1.0
        parts.m[:] = 1.0
        parts.ux[:] = [1.0, -1.0]
        assert np.allclose(parts.momentum(), [0.0, 0.0, 0.0])
