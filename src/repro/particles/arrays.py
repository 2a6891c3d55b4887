"""Particle storage as one block.

:class:`ParticleArray` keeps its particles in one C-contiguous float64
``(9, n)`` array, a row per attribute (:data:`ROWS`): positions ``x, y``;
relativistic momenta ``ux, uy, uz`` = gamma * v in normalized units;
``q`` charge, ``m`` mass, ``w`` statistical weight; and persistent ids,
exact up to 2**53 in the float64 row (the constructor refuses others),
that verify that redistribution permutes but never loses particles.
``x .. w`` are contiguous row views the kernels write through.  As in
Ferrell & Bertschinger's Connection Machine PIC, particles move as whole
blocks: a message is a ``(9, k)`` column range, a redistribution
gathers columns straight into the next block, a checkpoint streams the
block out as ``(n, 9)`` rows.

:class:`ParticlePool` is all ranks' particles in one block with per-rank
segment offsets, the layout of the pooled engine (see ``DESIGN.md``);
``pool.views[r]`` are zero-copy column ranges, so in-place kernels (the
Boris push) update the per-rank sets and the pool simultaneously.
"""

from __future__ import annotations

import numpy as np

from repro.util import require

__all__ = ["ParticleArray", "ParticlePool", "ROWS", "MAX_ID"]

#: Row order of the particle block.
ROWS = ("x", "y", "ux", "uy", "uz", "q", "m", "w", "ids")
#: Largest id magnitude the float64 ids row holds exactly.
MAX_ID = 2**53


class ParticleArray:
    """A set of particles stored as one ``(9, n)`` float64 ``block``.

    The constructor copies the nine attribute arrays into a new block,
    :meth:`from_block` adopts one; ``ids`` reads its last row as int64.
    """

    __slots__ = ("block", "x", "y", "ux", "uy", "uz", "q", "m", "w")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        ux: np.ndarray,
        uy: np.ndarray,
        uz: np.ndarray,
        q: np.ndarray,
        m: np.ndarray,
        w: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        columns = (x, y, ux, uy, uz, q, m, w, np.asarray(ids, dtype=np.int64))
        n = np.shape(x)[0] if np.ndim(x) else 0
        for name, arr in zip(ROWS, columns):
            require(np.ndim(arr) == 1, f"{name} must be 1-D")
            require(np.shape(arr)[0] == n, f"{name} has length {np.shape(arr)[0]}, expected {n}")
        beyond = columns[-1][(columns[-1] > MAX_ID) | (columns[-1] < -MAX_ID)]
        require(
            beyond.size == 0,
            f"particle ids beyond 2**53 lose digits in the float64 ids row "
            f"(first: {beyond[0] if beyond.size else None})",
        )
        self._bind(np.array(columns, dtype=np.float64))

    def _bind(self, block: np.ndarray) -> None:
        self.block = block
        self.x, self.y, self.ux, self.uy, self.uz, self.q, self.m, self.w, _ = block

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_block(cls, block: np.ndarray) -> "ParticleArray":
        """Adopt a float64 ``(9, n)`` block (no copy)."""
        require(
            block.ndim == 2 and block.shape[0] == len(ROWS) and block.dtype == np.float64,
            f"expected a float64 ({len(ROWS)}, n) block, got {block.dtype} {block.shape}",
        )
        parts = cls.__new__(cls)
        parts._bind(block)
        return parts

    @classmethod
    def empty(cls, n: int = 0) -> "ParticleArray":
        """``n`` zero-initialized particles with ids ``0..n-1``."""
        block = np.zeros((len(ROWS), n))
        block[-1] = np.arange(n)
        return cls.from_block(block)

    @classmethod
    def concat(cls, parts: list["ParticleArray"]) -> "ParticleArray":
        """Concatenate several arrays (empty list gives an empty array)."""
        if not parts:
            return cls.empty(0)
        return cls.from_block(np.concatenate([p.block for p in parts], axis=1))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of particles."""
        return self.block.shape[1]

    @property
    def ids(self) -> np.ndarray:
        """Persistent particle ids (an int64 copy of the ids row)."""
        return self.block[-1].astype(np.int64)

    def __len__(self) -> int:
        return self.n

    def copy(self) -> "ParticleArray":
        """Deep copy."""
        return ParticleArray.from_block(self.block.copy())

    def take(self, idx: np.ndarray) -> "ParticleArray":
        """Select particles by integer index or boolean mask."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return ParticleArray.from_block(self.block.take(idx, axis=1))

    def slice_view(self, start: int, stop: int) -> "ParticleArray":
        """Zero-copy view of particles ``[start, stop)``, unchecked (a pool
        builds one per rank)."""
        view = ParticleArray.__new__(ParticleArray)
        view._bind(self.block[:, start:stop])
        return view

    def sorted_by(self, keys: np.ndarray) -> "ParticleArray":
        """Return a copy stably sorted by ``keys``."""
        keys = np.asarray(keys)
        require(keys.shape == (self.n,), "keys must have one entry per particle")
        order = np.argsort(keys, kind="stable")
        return self.take(order)

    # ------------------------------------------------------------------
    # physics helpers
    # ------------------------------------------------------------------
    def gamma(self) -> np.ndarray:
        """Relativistic Lorentz factor per particle (c = 1)."""
        return np.sqrt(1.0 + self.ux**2 + self.uy**2 + self.uz**2)

    def kinetic_energy(self) -> float:
        """Total relativistic kinetic energy ``sum w * m * (gamma - 1)``."""
        return float((self.w * self.m * (self.gamma() - 1.0)).sum())

    def momentum(self) -> np.ndarray:
        """Total momentum vector ``sum w * m * u`` (3 components)."""
        return (self.w * self.m * self.block[2:5]).sum(axis=1)

    def __repr__(self) -> str:
        return f"ParticleArray(n={self.n})"


class ParticlePool:
    """All ranks' particles in one :class:`ParticleArray` with segment offsets.

    Attributes
    ----------
    array:
        The pooled particles, rank-segment ordered: rank ``r`` owns
        columns ``[offsets[r], offsets[r+1])`` of ``array.block``.
    offsets:
        int64 segment boundaries, length ``p + 1`` with ``offsets[0] == 0``
        and ``offsets[-1] == array.n``.
    views:
        Per-rank zero-copy :meth:`ParticleArray.slice_view` windows into
        ``array`` — mutating a view mutates the pool and vice versa.  Built
        on first read, once per pool: the whole-pool passes never read them,
        so a step or a redistribution costs no Python work per rank.
    """

    __slots__ = ("array", "offsets", "_views")

    def __init__(self, array: ParticleArray, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        require(offsets.ndim == 1 and offsets.shape[0] >= 2, "offsets must be 1-D, length >= 2")
        require(offsets[0] == 0, "offsets must start at 0")
        require(offsets[-1] == array.n, "offsets must end at the pool size")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.array = array
        self.offsets = offsets
        self._views: list[ParticleArray] | None = None

    @classmethod
    def from_ranks(cls, parts: list[ParticleArray]) -> "ParticlePool":
        """Pool per-rank particle sets (one concatenation copy)."""
        counts = np.array([p.n for p in parts], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return cls(ParticleArray.concat(parts), offsets)

    # ------------------------------------------------------------------
    @property
    def views(self) -> list[ParticleArray]:
        """Per-rank windows into ``array`` (built on first read)."""
        if self._views is None:
            bounds = self.offsets.tolist()
            self._views = [self.array.slice_view(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        return self._views

    @property
    def p(self) -> int:
        """Number of rank segments."""
        return len(self.offsets) - 1

    @property
    def n(self) -> int:
        """Total pooled particles."""
        return self.array.n

    @property
    def counts(self) -> np.ndarray:
        """Per-rank particle counts (int64, length ``p``)."""
        return np.diff(self.offsets)

    def __repr__(self) -> str:
        return f"ParticlePool(p={self.p}, n={self.n})"
