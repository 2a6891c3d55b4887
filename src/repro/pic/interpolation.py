"""Gather phase: cloud-in-cell interpolation of E and B to particles.

The inverse of deposition (the paper's Figure 3 ``Gather()``): each
particle sums bilinear-weighted contributions from its 4 vertex nodes.
The node-value lookup is factored out (:func:`gather_from_node_values`)
so the parallel gather can substitute a local-plus-ghost value table for
the global arrays.

:func:`gather_from_node_values` is segment-oblivious: the reduction is
independent per particle, so the pooled engine calls it once over the
whole pooled particle array and the results are bit-identical to ``p``
per-rank calls on the segments (the per-particle 4-vertex sum order is
unchanged by pooling).
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.mesh.fields import FieldState
from repro.mesh.grid import Grid2D
from repro.particles.arrays import ParticleArray

__all__ = ["gather_from_node_values", "interpolate_numpy", "interpolate_fields"]


def gather_from_node_values(
    node_values: np.ndarray, nodes: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Interpolate per-node component values to particles.

    Parameters
    ----------
    node_values:
        ``(ncomp, nnodes)`` flat node data (e.g. 6 components of E, B).
    nodes, weights:
        ``(n, 4)`` CIC vertices and weights from
        :meth:`repro.mesh.grid.Grid2D.cic_vertices_weights`.
    out:
        Optional ``(ncomp, n)`` buffer to write into (the era stepper
        keeps one across steps); a fresh array otherwise.

    Returns
    -------
    numpy.ndarray
        ``(ncomp, n)`` interpolated values at particles.
    """
    # Node-major copy: a vertex reads one 8 * ncomp-byte row, not ncomp
    # values nnodes * 8 bytes apart.
    by_node = np.ascontiguousarray(node_values.T)
    compiled = native.kernels()
    found = compiled.interpolate(by_node, nodes, weights, out) if compiled is not None else None
    return interpolate_numpy(by_node, nodes, weights, out) if found is None else found


def interpolate_numpy(
    by_node: np.ndarray, nodes: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The NumPy body of :func:`gather_from_node_values` on node-major
    ``(nnodes, ncomp)`` values: fallback and oracle of the compiled loop.

    ``node_values[:, nodes]`` lays its result out vertex-major too, so
    einsum sees the same memory and sums in the same order: the floats
    are that formulation's (into ``out`` as well).
    """
    gathered = by_node.take(nodes.ravel(), axis=0).reshape(nodes.shape + by_node.shape[1:])
    return np.einsum("nvc,nv->cn", gathered, weights, out=out)


def interpolate_fields(
    grid: Grid2D, fields: FieldState, particles: ParticleArray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential gather: E and B at each particle position.

    Returns
    -------
    (e, b):
        Arrays of shape ``(3, n)``: electric and magnetic field vectors
        at the particles.
    """
    nodes, weights = grid.cic_vertices_weights(particles.x, particles.y)
    node_values = np.stack(
        [
            fields.ex.ravel(),
            fields.ey.ravel(),
            fields.ez.ravel(),
            fields.bx.ravel(),
            fields.by.ravel(),
            fields.bz.ravel(),
        ]
    )
    both = gather_from_node_values(node_values, nodes, weights)
    return both[:3], both[3:]
