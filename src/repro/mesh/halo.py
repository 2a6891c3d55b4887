"""Halo-exchange schedules for the field-solve stencil.

The field solve needs, at every owned node, the values of its four
stencil neighbours; neighbours owned by other ranks form the *halo*.
:class:`HaloSchedule` precomputes, from any
:class:`~repro.mesh.decomposition.MeshDecomposition`, who sends which
node values to whom, and executes the exchange on the virtual machine —
physically moving the boundary values so tests can check that what each
rank receives equals the owner's data.

For square tiles the per-rank halo is the tile perimeter, i.e. the
``4 * sqrt(m/p) * l_grid`` term of the paper's field-solve bound.
"""

from __future__ import annotations

import numpy as np

from repro.machine.batch import MessageBatch
from repro.machine.virtual import VirtualMachine
from repro.mesh.decomposition import MeshDecomposition
from repro.util import require

__all__ = ["HaloSchedule"]


class HaloSchedule:
    """Precomputed neighbour-value exchange plan for one decomposition.

    Attributes
    ----------
    recv_nodes:
        ``recv_nodes[r]`` maps owner rank -> sorted node ids that rank
        ``r`` needs from that owner each field-solve step.
    send_nodes:
        ``send_nodes[r]`` maps destination rank -> sorted node ids rank
        ``r`` must send (the transpose of ``recv_nodes``).
    plan:
        The same schedule as one :class:`~repro.machine.batch.MessageBatch`
        of node ids in ``(sender, receiver)`` order; an exchange fills it
        with values.
    """

    def __init__(self, decomp: MeshDecomposition) -> None:
        self.decomp = decomp
        self.p = decomp.p
        nnodes = decomp.grid.nnodes
        owner_map = np.asarray(decomp.owner_map, dtype=np.int64)
        # every (receiver, off-rank stencil neighbour) pair once, by receiver then node
        neigh = decomp.grid.node_neighbors(np.arange(nnodes)).ravel()
        receiver = np.repeat(owner_map, 4)
        off = owner_map[neigh] != receiver
        dst, ids = np.divmod(np.unique(receiver[off] * nnodes + neigh[off]), nnodes)
        src = owner_map[ids]
        order = np.argsort(src, kind="stable")  # -> (sender, receiver, node) order
        self.plan = MessageBatch.coalesce(src[order], dst[order], ids[order])
        self.send_nodes = self.plan.to_dicts(self.p)
        self.recv_nodes = self.plan.to_dicts(self.p, received=True)

    # ------------------------------------------------------------------
    def halo_sizes(self) -> np.ndarray:
        """Number of halo nodes each rank receives per exchange."""
        plan = self.plan
        return np.bincount(plan.dst, weights=plan.counts, minlength=self.p).astype(np.int64)

    def exchange(
        self,
        vm: VirtualMachine,
        values: np.ndarray,
        *,
        ncomponents: int = 1,
    ) -> MessageBatch:
        """Execute one halo exchange of node ``values`` on ``vm``.

        Parameters
        ----------
        vm:
            The virtual machine (its current phase labels the traffic).
        values:
            Flat node-value array of length ``nnodes`` (or ``(ncomp,
            nnodes)`` when exchanging several field components at once —
            pass ``ncomponents`` to size the messages accordingly).
        ncomponents:
            Number of field components packed per node (e.g. the Maxwell
            solve halo carries E and B, 6 scalars per node).

        Returns
        -------
        MessageBatch
            What was delivered, values only, aligned with ``plan.ids``:
            ``out.to_dicts(p, received=True)[r][owner]`` is the
            ``(ncomponents, k)`` block for ``recv_nodes[r][owner]``.
        """
        values = np.asarray(values)
        if values.ndim > 1:
            require(
                values.shape[0] == ncomponents,
                f"values has {values.shape[0]} components, expected {ncomponents}",
            )
            flat = values.reshape(ncomponents, -1)
        else:
            require(ncomponents == 1, f"1-D values imply 1 component, got {ncomponents}")
            flat = values[None, :]
        require(
            flat.shape[1] == self.decomp.grid.nnodes,
            f"values must cover all {self.decomp.grid.nnodes} nodes",
        )
        plan = self.plan
        packed = flat.take(plan.ids, axis=1)
        return vm.exchange(MessageBatch(plan.src, plan.dst, plan.offsets, values=packed))
