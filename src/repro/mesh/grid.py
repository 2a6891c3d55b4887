"""Regular 2-D periodic grid geometry.

Conventions
-----------
* The physical domain is ``[0, lx) x [0, ly)`` with ``nx x ny`` cells of
  size ``dx = lx / nx``, ``dy = ly / ny``.
* Field *nodes* sit at cell lower-left corners; under periodic
  boundaries there are exactly ``nx * ny`` distinct nodes, so node and
  cell index spaces coincide: node/cell ``(i, j)`` has row-major id
  ``j * nx + i``.
* A particle at ``(x, y)`` lies in cell ``(floor(x/dx), floor(y/dy))``
  and couples to the 4 vertex nodes of that cell with bilinear
  (cloud-in-cell) weights — the paper's linear interpolation scheme.
"""

from __future__ import annotations

import numpy as np

from repro.util import require, require_positive

__all__ = ["Grid2D"]


def _wrap(coords: np.ndarray, length: float) -> np.ndarray:
    """``coords`` folded into ``[0, length)``, as a fresh array.

    Bit-equal to ``np.mod`` (which is ``fmod`` plus the sign fix-up
    below) followed by the fold of a result that rounded to exactly
    ``length`` — ``np.mod(-eps, L)`` does for tiny negative inputs —
    back to 0, at a third of ``np.mod``'s cost.
    """
    w = np.asarray(np.fmod(coords, length), dtype=float)
    w[w < 0] += length
    w += 0.0  # -0.0 -> +0.0, as np.mod returns for exact multiples
    w[w >= length] = 0.0
    return w


class Grid2D:
    """Geometry of a periodic ``nx x ny`` cell grid over ``[0,lx) x [0,ly)``.

    Parameters
    ----------
    nx, ny:
        Number of cells along x and y (>= 2 each, so the 4 CIC vertices
        are distinct).
    lx, ly:
        Physical extents; default to ``nx`` and ``ny`` (unit cells).
    """

    def __init__(self, nx: int, ny: int, lx: float | None = None, ly: float | None = None) -> None:
        require(nx >= 2 and ny >= 2, f"grid must be at least 2x2 cells, got {nx}x{ny}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.lx = float(lx) if lx is not None else float(nx)
        self.ly = float(ly) if ly is not None else float(ny)
        require_positive(self.lx, "lx")
        require_positive(self.ly, "ly")
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny

    # ------------------------------------------------------------------
    @property
    def ncells(self) -> int:
        """Total number of cells (== number of field nodes)."""
        return self.nx * self.ny

    @property
    def nnodes(self) -> int:
        """Total number of field nodes (== cells, periodic grid)."""
        return self.nx * self.ny

    @property
    def shape(self) -> tuple[int, int]:
        """Field-array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    # ------------------------------------------------------------------
    def wrap_positions(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fold positions into the periodic domain ``[0,lx) x [0,ly)``.

        The contract is half-open: inputs that fold to exactly ``lx`` /
        ``ly`` by float rounding come back as 0.
        """
        return _wrap(x, self.lx), _wrap(y, self.ly)

    def cell_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return integer cell coordinates of (already wrapped) positions."""
        cx = np.floor(np.asarray(x) / self.dx).astype(np.int64)
        cy = np.floor(np.asarray(y) / self.dy).astype(np.int64)
        # Positions exactly at the upper boundary (possible after a wrap
        # that returns lx due to float rounding) fold to the last cell.
        np.clip(cx, 0, self.nx - 1, out=cx)
        np.clip(cy, 0, self.ny - 1, out=cy)
        return cx, cy

    def cell_id(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Row-major cell ids of integer cell coordinates."""
        cx = np.asarray(cx, dtype=np.int64)
        cy = np.asarray(cy, dtype=np.int64)
        if cx.size and (cx.min() < 0 or cx.max() >= self.nx):
            raise ValueError(f"cx out of range [0, {self.nx})")
        if cy.size and (cy.min() < 0 or cy.max() >= self.ny):
            raise ValueError(f"cy out of range [0, {self.ny})")
        return cy * np.int64(self.nx) + cx

    def cell_coords(self, cell_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`cell_id`: return ``(cx, cy)``."""
        cell_ids = np.asarray(cell_ids, dtype=np.int64)
        if cell_ids.size and (cell_ids.min() < 0 or cell_ids.max() >= self.ncells):
            raise ValueError(f"cell id out of range [0, {self.ncells})")
        cy, cx = np.divmod(cell_ids, np.int64(self.nx))
        return cx, cy

    def cell_id_of_positions(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row-major cell ids of positions (wrapping applied)."""
        xw, yw = self.wrap_positions(x, y)
        cx, cy = self.cell_of(xw, yw)
        return self.cell_id(cx, cy)

    # ------------------------------------------------------------------
    def cic_axis(self, coords: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One axis of the CIC stencil: ``(cell, next cell, fraction)``.

        ``axis`` 0 is x, 1 is y.  Wrap, floor and clip act per axis, so a
        caller needing several stencils that share an axis shift (the six
        Yee-staggered components use two shifts per axis) evaluates each
        axis once and combines with :meth:`cic_from_axes`.
        """
        length, d, ncells = (
            (self.lx, self.dx, self.nx) if axis == 0 else (self.ly, self.dy, self.ny)
        )
        w = _wrap(coords, length)
        w /= d
        c = np.floor(w).astype(np.int64)
        np.clip(c, 0, ncells - 1, out=c)
        w -= c  # fractional offset in [0, 1)
        return c, (c + 1) % ncells, w

    def cic_from_axes(
        self,
        xa: tuple[np.ndarray, np.ndarray, np.ndarray],
        ya: tuple[np.ndarray, np.ndarray, np.ndarray],
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vertex nodes and bilinear weights from two :meth:`cic_axis`
        results, written into ``out`` if given."""
        cx, cx1, tx = xa
        cy, cy1, ty = ya
        row, row1 = cy * self.nx, cy1 * self.nx
        n = cx.shape[0]
        nodes, weights = out or (np.empty((n, 4), dtype=np.int64), np.empty((n, 4)))
        np.add(row, cx, out=nodes[:, 0])
        np.add(row, cx1, out=nodes[:, 1])
        np.add(row1, cx, out=nodes[:, 2])
        np.add(row1, cx1, out=nodes[:, 3])
        ux, uy = 1.0 - tx, 1.0 - ty
        np.multiply(ux, uy, out=weights[:, 0])
        np.multiply(tx, uy, out=weights[:, 1])
        np.multiply(ux, ty, out=weights[:, 2])
        np.multiply(tx, ty, out=weights[:, 3])
        return nodes, weights

    def cic_vertices_weights(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cloud-in-cell vertex nodes and bilinear weights for positions.

        Returns
        -------
        nodes:
            int64 array of shape ``(n, 4)`` — row-major node ids of the
            4 cell vertices (lower-left, lower-right, upper-left,
            upper-right), wrapped periodically.
        weights:
            float64 array of shape ``(n, 4)`` — bilinear weights, summing
            to 1 per particle.
        """
        return self.cic_from_axes(self.cic_axis(x, 0), self.cic_axis(y, 1))

    def cell_vertices(self, cell_ids: np.ndarray) -> np.ndarray:
        """The 4 vertex nodes of each cell, ``(n, 4)``, in the vertex order
        of :meth:`cic_vertices_weights` (whose first column is the cell)."""
        cy, cx = np.divmod(np.asarray(cell_ids, dtype=np.int64), np.int64(self.nx))
        row, row1 = cy * self.nx, (cy + 1) % self.ny * self.nx
        cx1 = (cx + 1) % self.nx
        return np.stack([row + cx, row + cx1, row1 + cx, row1 + cx1], axis=-1)

    def node_neighbors(self, node_ids: np.ndarray) -> np.ndarray:
        """Return the four stencil neighbours of each node.

        Shape ``(n, 4)``: west, east, south (iy-1), north (iy+1), with
        periodic wrap — the access pattern of the field-solve stencil.
        """
        node_ids = np.asarray(node_ids, dtype=np.int64)
        iy, ix = np.divmod(node_ids, np.int64(self.nx))
        west = iy * self.nx + (ix - 1) % self.nx
        east = iy * self.nx + (ix + 1) % self.nx
        south = ((iy - 1) % self.ny) * self.nx + ix
        north = ((iy + 1) % self.ny) * self.nx + ix
        return np.stack([west, east, south, north], axis=-1)

    def __repr__(self) -> str:
        return f"Grid2D({self.nx}x{self.ny}, lx={self.lx:g}, ly={self.ly:g})"
