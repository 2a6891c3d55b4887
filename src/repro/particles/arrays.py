"""Structure-of-arrays particle storage.

:class:`ParticleArray` keeps one NumPy array per attribute (positions
``x, y``; relativistic momenta ``ux, uy, uz`` = gamma * v in normalized
units; ``q`` charge, ``m`` mass, ``w`` statistical weight, and a
persistent ``ids`` field used to verify that redistribution permutes but
never loses particles).  The dense ``(n, 9)`` matrix form is the wire
format for migration through the virtual machine: ids ride in a float64
column, exact up to 2**53 particles.

:class:`ParticlePool` concatenates all ranks' particles into one SoA
with per-rank segment offsets — the storage layout of the flat-rank
execution engine (see ``DESIGN.md``), where every PIC phase runs as one
vectorized pass over the pool and per-rank results are recovered by
slicing at segment boundaries.  ``pool.views[r]`` are zero-copy slice
views of the pooled arrays, so in-place kernels (the Boris push) update
the per-rank sets and the pool simultaneously.
"""

from __future__ import annotations

import numpy as np

from repro.util import require

__all__ = ["ParticleArray", "ParticlePool"]

#: Transport-matrix column order.
MATRIX_COLUMNS = ("x", "y", "ux", "uy", "uz", "q", "m", "w", "ids")


class ParticleArray:
    """A set of particles stored as parallel 1-D arrays.

    All float attributes are float64; ``ids`` is int64.  Instances own
    their arrays (constructors copy only when needed via ``np.asarray``
    — pass copies if you intend to keep mutating the inputs).
    """

    __slots__ = ("x", "y", "ux", "uy", "uz", "q", "m", "w", "ids")

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
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.ux = np.asarray(ux, dtype=np.float64)
        self.uy = np.asarray(uy, dtype=np.float64)
        self.uz = np.asarray(uz, dtype=np.float64)
        self.q = np.asarray(q, dtype=np.float64)
        self.m = np.asarray(m, dtype=np.float64)
        self.w = np.asarray(w, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        n = self.x.shape[0]
        for name in self.__slots__:
            arr = getattr(self, name)
            require(arr.ndim == 1, f"{name} must be 1-D")
            require(arr.shape[0] == n, f"{name} has length {arr.shape[0]}, expected {n}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, n: int = 0) -> "ParticleArray":
        """``n`` zero-initialized particles with ids ``0..n-1``."""
        z = np.zeros(n)
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), np.arange(n, dtype=np.int64))

    @classmethod
    def concat(cls, parts: list["ParticleArray"]) -> "ParticleArray":
        """Concatenate several arrays (empty list gives an empty array)."""
        if not parts:
            return cls.empty(0)
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in cls.__slots__
            )
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of particles."""
        return self.x.shape[0]

    def __len__(self) -> int:
        return self.n

    def copy(self) -> "ParticleArray":
        """Deep copy."""
        return ParticleArray(*(getattr(self, name).copy() for name in self.__slots__))

    def take(self, idx: np.ndarray) -> "ParticleArray":
        """Select particles by integer index or boolean mask."""
        idx = np.asarray(idx)
        return ParticleArray(*(getattr(self, name)[idx] for name in self.__slots__))

    def slice_view(self, start: int, stop: int) -> "ParticleArray":
        """Zero-copy view of particles ``[start, stop)`` (shared memory).

        Slices of validated columns need no validation, so a view costs
        no per-column call (a pool builds one per rank).
        """
        view = ParticleArray.__new__(ParticleArray)
        view.x, view.y, view.ux = self.x[start:stop], self.y[start:stop], self.ux[start:stop]
        view.uy, view.uz, view.q = self.uy[start:stop], self.uz[start:stop], self.q[start:stop]
        view.m, view.w, view.ids = self.m[start:stop], self.w[start:stop], self.ids[start:stop]
        return view

    def sorted_by(self, keys: np.ndarray) -> "ParticleArray":
        """Return a copy stably sorted by ``keys``."""
        keys = np.asarray(keys)
        require(keys.shape == (self.n,), "keys must have one entry per particle")
        order = np.argsort(keys, kind="stable")
        return self.take(order)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Pack into the dense ``(n, 9)`` float64 transport matrix."""
        out = np.empty((self.n, len(MATRIX_COLUMNS)))
        for j, name in enumerate(MATRIX_COLUMNS):
            out[:, j] = getattr(self, name)
        return out

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "ParticleArray":
        """Unpack a transport matrix produced by :meth:`to_matrix`."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(MATRIX_COLUMNS):
            raise ValueError(f"expected (n, {len(MATRIX_COLUMNS)}) matrix, got {matrix.shape}")
        cols = {name: matrix[:, j].copy() for j, name in enumerate(MATRIX_COLUMNS)}
        cols["ids"] = np.round(cols["ids"]).astype(np.int64)
        return cls(**cols)

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
        return np.array(
            [
                float((self.w * self.m * self.ux).sum()),
                float((self.w * self.m * self.uy).sum()),
                float((self.w * self.m * self.uz).sum()),
            ]
        )

    def __repr__(self) -> str:
        return f"ParticleArray(n={self.n})"


class ParticlePool:
    """All ranks' particles in one :class:`ParticleArray` with segment offsets.

    Attributes
    ----------
    array:
        The pooled particles, rank-segment ordered: rank ``r`` owns rows
        ``[offsets[r], offsets[r+1])``.
    offsets:
        int64 segment boundaries, length ``p + 1`` with ``offsets[0] == 0``
        and ``offsets[-1] == array.n``.
    views:
        Per-rank zero-copy :meth:`ParticleArray.slice_view` windows into
        ``array`` — mutating a view mutates the pool and vice versa.
    """

    __slots__ = ("array", "offsets", "views", "_rank_of")

    def __init__(self, array: ParticleArray, offsets: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        require(offsets.ndim == 1 and offsets.shape[0] >= 2, "offsets must be 1-D, length >= 2")
        require(offsets[0] == 0, "offsets must start at 0")
        require(offsets[-1] == array.n, "offsets must end at the pool size")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.array = array
        self.offsets = offsets
        bounds = offsets.tolist()
        self.views = [array.slice_view(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._rank_of: np.ndarray | None = None

    @classmethod
    def from_ranks(cls, parts: list[ParticleArray]) -> "ParticlePool":
        """Pool per-rank particle sets (one concatenation copy)."""
        counts = np.array([p.n for p in parts], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return cls(ParticleArray.concat(parts), offsets)

    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of rank segments."""
        return len(self.views)

    @property
    def n(self) -> int:
        """Total pooled particles."""
        return self.array.n

    @property
    def counts(self) -> np.ndarray:
        """Per-rank particle counts (int64, length ``p``)."""
        return np.diff(self.offsets)

    def rank_of_particles(self) -> np.ndarray:
        """Owning rank of every pooled row (cached)."""
        if self._rank_of is None:
            self._rank_of = np.repeat(
                np.arange(self.p, dtype=np.int64), self.counts
            )
        return self._rank_of

    def owns(self, particles: list[ParticleArray]) -> bool:
        """True when ``particles`` are exactly this pool's views.

        The pooled steppers use this identity check to detect external
        replacement of their per-rank particle lists and rebuild the pool
        lazily.
        """
        return len(particles) == self.p and all(
            particles[r] is self.views[r] for r in range(self.p)
        )

    def __repr__(self) -> str:
        return f"ParticlePool(p={self.p}, n={self.n})"
