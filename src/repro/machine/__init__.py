"""Virtual coarse-grained distributed-memory machine (the CM-5 substitute).

The paper evaluates on a 32–128 node TMC CM-5 and models it (its §4) with
a *two-level* cost model: unit computation ``delta``, message start-up
``tau``, and inverse bandwidth ``mu``, independent of distance and
congestion.  This package provides exactly that machine as a simulation
substrate:

* :class:`MachineModel` — the (delta, tau, mu) constants plus per-category
  unit-operation costs; CM-5 and modern-cluster presets.
* :class:`VirtualMachine` — ``p`` virtual ranks with per-rank virtual
  clocks.  SPMD phase code runs rank-by-rank on real NumPy data;
  communication physically moves buffers between ranks while the clocks
  advance according to the cost model.
* :class:`MessageBatch` — one exchange's messages as arrays (``src``,
  ``dst``, ``offsets`` + pooled payloads), priced by
  :meth:`VirtualMachine.exchange` without per-message work.
* :class:`CommStats` — per-phase, per-rank message/byte accounting, the
  source of the paper's Figures 18/19 ("max data / max messages sent or
  received by any processor").
* :class:`BlockTopology` — 2-D processor grids and neighbour maps for
  halo exchanges.
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic fault
  injection (rank kills, message drops/duplications/corruptions,
  per-rank slowdowns) applied at the machine's communication choke
  points, with retry/timeout/backoff charged to the virtual clocks.

The machine is *bulk-synchronous*: each PIC phase ends in a barrier, so
per-iteration virtual time is the sum over phases of the slowest rank's
(compute + communication) cost — the same structure as the paper's
complexity analysis.
"""

from repro.machine.batch import MessageBatch
from repro.machine.faults import FaultEvent, FaultInjector, FaultPlan
from repro.machine.model import MachineModel
from repro.machine.stats import CommStats, PhaseComm
from repro.machine.topology import BlockTopology, best_process_grid
from repro.machine.trace import PhaseTrace
from repro.machine.virtual import VirtualMachine

__all__ = [
    "MachineModel",
    "VirtualMachine",
    "MessageBatch",
    "CommStats",
    "PhaseComm",
    "BlockTopology",
    "best_process_grid",
    "PhaseTrace",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
]
