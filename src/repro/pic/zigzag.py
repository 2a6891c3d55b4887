r"""Charge-conserving current deposition (Umeda's zigzag scheme).

Plain CIC current deposition (velocity-weighted charge, as used in the
1996 era and in :mod:`repro.pic.deposition`) does not satisfy the
discrete continuity equation, so ``div E - rho`` drifts and must be
cleaned (Marder, :mod:`repro.pic.maxwell`).  The zigzag scheme of Umeda
et al. (Comput. Phys. Commun. 156, 2003) computes J directly from each
particle's motion segment ``(x_old) -> (x_new)`` such that

.. math::

    (rho^{new} - rho^{old}) / dt + div J = 0

holds *exactly*, where rho is the CIC (bilinear) node density and the
divergence is the staggered difference ``(Jx[i,j] - Jx[i-1,j])/dx +
(Jy[i,j] - Jy[i,j-1])/dy`` with ``Jx[i,j]`` living on the x-face
``(i+1/2, j)`` and ``Jy[i,j]`` on the y-face ``(i, j+1/2)``.

The trajectory is split at the cell boundary (the *relay point*) into at
most two straight sub-segments, each inside one cell; a segment in cell
``(i, j)`` deposits

.. math::

    Jx(i+1/2, j)   +=  F_x (1 - W_y), \qquad
    Jx(i+1/2, j+1) +=  F_x W_y

with flux ``F_x = q (x_b - x_a) / dt`` and transverse weight
``W_y = (y_a + y_b) / (2 dy) - j`` (symmetrically for ``Jy``).

The kernel is standalone (property-tested for exact continuity) and can
replace the plain current deposition in custom steppers; the default
steppers keep the paper-era kernel + Marder cleaning so the reproduction
exercises the same code path as the original.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.grid import Grid2D
from repro.pic.deposition import deposit_by_destination
from repro.util import require

__all__ = [
    "zigzag_entries",
    "zigzag_entries_numpy",
    "deposit_zigzag_entries",
    "deposit_current_zigzag",
    "continuity_residual",
    "JX_VERTICES",
    "JY_VERTICES",
]

#: CIC vertex (column of :meth:`Grid2D.cell_vertices`) of the sub-segment's
#: cell that each of the four :func:`zigzag_entries` rows deposits on
JX_VERTICES = (0, 2, 0, 2)
JY_VERTICES = (0, 1, 0, 1)


def zigzag_entries(
    grid: Grid2D,
    x_old: np.ndarray,
    y_old: np.ndarray,
    x_new: np.ndarray,
    y_new: np.ndarray,
    charge: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Face-current contributions of per-particle motion segments.

    Parameters
    ----------
    grid:
        Periodic geometry.  Each particle must move less than one cell
        per step (guaranteed under the CFL limit since |v| < c = 1).
    x_old, y_old, x_new, y_new:
        Positions before and after the push (wrapped or not; the
        shortest periodic displacement is used).
    charge:
        Per-particle charge (``w * q``).
    dt:
        Time step.

    Returns
    -------
    (jx_nodes, jx_values, jy_nodes, jy_values):
        Flat entry lists of length ``4 n`` per component, in density
        units (divided by the cell area).  Each list is four rows of
        ``n`` — (first sub-segment, second) x (its two faces) — so
        summing it per node in list order (``np.bincount``) *is* the
        deposition, and the parallel stepper keys the same lists by
        ``(rank, node)``.  Rows 0 and 2 hold the sub-segments' (wrapped)
        cells, rows 1 and 3 those cells' vertices
        :data:`JX_VERTICES` / :data:`JY_VERTICES`.

    A move of a cell or more (or a NaN one) raises ``ValueError``.
    """
    require(dt > 0, "dt must be > 0")
    x_old = np.asarray(x_old, float)
    y_old = np.asarray(y_old, float)
    x_new = np.asarray(x_new, float)
    y_new = np.asarray(y_new, float)
    charge = np.asarray(charge, float)
    n = x_old.shape[0]
    require(
        all(a.shape == (n,) for a in (y_old, x_new, y_new, charge)),
        "all position/charge arrays must share one length",
    )
    blocks = zigzag_entries_numpy(grid, x_old, y_old, x_new, y_new, charge, dt)
    return tuple(block.ravel() for block in blocks)


def zigzag_entries_numpy(
    grid: Grid2D,
    x_old: np.ndarray,
    y_old: np.ndarray,
    x_new: np.ndarray,
    y_new: np.ndarray,
    charge: np.ndarray,
    dt: float,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The body of :func:`zigzag_entries` on validated float64 arrays, and
    the oracle of the compiled modern scatter's zigzag entries: the four
    ``(4, n)`` blocks (``out`` if given).  ``np.mod`` gives the shortest
    move, so the compiled pass computes NumPy's float remainder, not the
    wrap."""
    n = x_old.shape[0]
    # Unwrapped coordinates: wrapped start + shortest periodic move.
    x1, y1 = grid.wrap_positions(x_old, y_old)
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

    # Umeda's relay point: shared boundary when the cells differ along
    # an axis, else the midpoint.
    def relay(a1, a2, c1, c2, d):
        boundary = np.maximum(c1, c2) * d  # the face between the two cells
        mid = 0.5 * (a1 + a2)
        return np.where(c1 == c2, mid, boundary)

    xr = relay(x1, x2, c1x, c2x, grid.dx)
    yr = relay(y1, y2, c1y, c2y, grid.dy)

    inv_area = 1.0 / (grid.dx * grid.dy)
    jx_nodes, jx_values, jy_nodes, jy_values = out or (
        np.empty((4, n), dtype=np.int64), np.empty((4, n)),
        np.empty((4, n), dtype=np.int64), np.empty((4, n)),
    )  # fmt: skip

    def segment(k, xa, ya, xb, yb, cx, cy):
        """Entries of one straight sub-segment lying inside cell (cx, cy)."""
        fx = charge * (xb - xa) / dt
        fy = charge * (yb - ya) / dt
        wy = 0.5 * (ya + yb) / grid.dy - cy  # transverse weight in [0, 1]
        wx = 0.5 * (xa + xb) / grid.dx - cx
        cxw = np.mod(cx, grid.nx)
        row = np.mod(cy, grid.ny) * grid.nx
        # Jx on faces (cx + 1/2, cy) and (cx + 1/2, cy + 1)
        np.add(row, cxw, out=jx_nodes[k])
        np.add(np.mod(cy + 1, grid.ny) * grid.nx, cxw, out=jx_nodes[k + 1])
        jx_values[k] = fx * (1.0 - wy) * inv_area
        jx_values[k + 1] = fx * wy * inv_area
        # Jy on faces (cx, cy + 1/2) and (cx + 1, cy + 1/2)
        jy_nodes[k] = jx_nodes[k]
        np.add(row, np.mod(cx + 1, grid.nx), out=jy_nodes[k + 1])
        jy_values[k] = fy * (1.0 - wx) * inv_area
        jy_values[k + 1] = fy * wx * inv_area

    segment(0, x1, y1, xr, yr, c1x, c1y)
    segment(2, xr, yr, x2, y2, c2x, c2y)
    return jx_nodes, jx_values, jy_nodes, jy_values


def deposit_zigzag_entries(
    values: np.ndarray,
    dest: np.ndarray,
    pair_of: np.ndarray,
    acc: np.ndarray,
    summed: np.ndarray,
) -> None:
    """Sum the jx and jy lists of :func:`zigzag_entries` by destination.

    ``values`` is ``(2, 4 n)``: the jx list, then the jy list.  ``dest``
    and ``pair_of`` are a :class:`~repro.pic.deposition.GhostSlots`' whose
    first two cell rows are the two sub-segments' cells.  Row ``r`` of a
    list goes to ``dest[pair_of[r // 2], vertices[r]]``, its component's
    :data:`JX_VERTICES` or :data:`JY_VERTICES`: on-rank sums into ``acc``
    ``(2, nnodes)``, ghost slots' into ``summed`` ``(2, nslots)``, both
    overwritten, each bin added to in list order
    (:func:`~repro.pic.deposition.deposit_by_destination`'s), one
    ``bincount`` per component: the modern scatter's NumPy body
    (:func:`repro.parallel_exec.kernels.scatter_yee_numpy`).
    """
    segment_pair = pair_of[:2].repeat(2, axis=0)  # per entry row
    for c, vertices in enumerate((JX_VERTICES, JY_VERTICES)):
        entry_dest = dest[segment_pair, np.reshape(vertices, (4, 1))].ravel()
        deposit_by_destination(entry_dest, values[c : c + 1], acc[c : c + 1], summed[c : c + 1])


def deposit_current_zigzag(
    grid: Grid2D,
    x_old: np.ndarray,
    y_old: np.ndarray,
    x_new: np.ndarray,
    y_new: np.ndarray,
    charge: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Deposit face currents from per-particle motion segments.

    Parameters as :func:`zigzag_entries`, whose entry lists this sums
    onto the mesh.

    Returns
    -------
    (jx, jy):
        Face-current arrays of shape ``(ny, nx)`` in density units
        (divided by the cell area), satisfying exact discrete continuity
        with the CIC charge density (see :func:`continuity_residual`).
    """
    jx_nodes, jx_values, jy_nodes, jy_values = zigzag_entries(
        grid, x_old, y_old, x_new, y_new, charge, dt
    )
    jx = np.bincount(jx_nodes, weights=jx_values, minlength=grid.nnodes)
    jy = np.bincount(jy_nodes, weights=jy_values, minlength=grid.nnodes)
    return jx.reshape(grid.shape), jy.reshape(grid.shape)


def continuity_residual(
    grid: Grid2D,
    rho_old: np.ndarray,
    rho_new: np.ndarray,
    jx: np.ndarray,
    jy: np.ndarray,
    dt: float,
) -> np.ndarray:
    """``(rho_new - rho_old)/dt + div J`` with the staggered divergence.

    ``rho_*`` are CIC node densities
    (:func:`repro.pic.deposition.deposit_charge_current` channel 0);
    identically ~0 (machine precision) for zigzag-deposited currents.
    """
    div = (jx - np.roll(jx, 1, axis=1)) / grid.dx + (jy - np.roll(jy, 1, axis=0)) / grid.dy
    return (np.asarray(rho_new) - np.asarray(rho_old)) / dt + div
