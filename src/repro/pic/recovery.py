"""Rank-failure recovery, imported on a run's first :class:`~repro.util.errors.RankFailure`.

It rebuilds the PIC stack, so it lives here, not beside
:mod:`repro.machine.faults` (nothing in :mod:`repro.machine` imports
:mod:`repro.pic`)."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.particles.arrays import ParticleArray
from repro.pic.checkpoint import CheckpointError, load_checkpoint, restore_history
from repro.util.errors import RankFailure

if TYPE_CHECKING:
    from repro.pic.simulation import Simulation

__all__ = ["recover"]


def recover(sim: Simulation, failure: RankFailure) -> None:
    """Shrink ``sim``'s machine to the survivors and restore run state.

    Two paths, both leaving the run able to continue from
    :meth:`~repro.pic.simulation.Simulation.run`'s loop:

    * **checkpoint restore** — when the run wrote a checkpoint (or came
      from one), the full state at iteration ``k`` is reloaded,
      repartitioned onto the ``p - 1`` survivors, and iterations ``k ..``
      are replayed.  Physics is exact: the final state matches the
      fault-free run (the atol=1e-12 contract of DESIGN.md §5.3).
    * **live salvage** — with no checkpoint, the dead rank's
      particles are recovered from the live pool state and
      redistributed over the survivors; the current iteration
      restarts.  Conservation invariants hold, but the state is the
      mid-step one, so only the invariants — not bit-exactness — are
      guaranteed.

    The new machine's clocks start at the failed machine's elapsed
    time (which already includes the detection timeout), so recovery
    overhead is visible in ``vm.elapsed()`` and, via the
    ``"recovery"`` / ``"redistribution"`` phase labels, in the phase
    breakdown.
    """
    plan = sim.fault_plan
    if plan is None:  # no plan installed: not recoverable here
        raise failure
    old_vm = sim.vm
    dead = failure.rank
    p_new = old_vm.p - 1
    if p_new < 1:
        raise failure
    t_fail = old_vm.elapsed()  # includes the charged detection timeout

    # -- shrink the machine, carrying the accumulated time forward --
    vm = old_vm.shrunk(p_new)
    survivor_plan = plan.survivor_plan(dead)
    vm.install_faults(survivor_plan)
    injector = vm.fault_injector
    if injector is not None:
        injector.set_iteration(sim.iteration)
    tel = sim.telemetry
    if tel is not None:
        # attach the tracer before recovery charges land so the
        # "recovery" phase shows up as spans on the shrunk machine
        vm.tracer = tel.tracer
        tel.set_iteration(sim.iteration)
        tel.record_event(
            "rank_failure", t=t_fail, iteration=sim.iteration, rank=dead
        )
    sim.config = replace(sim.config, p=p_new)
    sim.vm = vm
    sim.fault_plan = survivor_plan
    # the shrunk machine carries the old phase maxima forward, so the
    # phase trace stays continuous across the swap (no stale machine,
    # no double counting)
    sim.trace.rebind(vm)

    # -- recover the physical + control state --------------------------
    data = None
    if sim._last_checkpoint is not None:
        try:
            data = load_checkpoint(sim._last_checkpoint)
        except (FileNotFoundError, CheckpointError):
            data = None
    if data is not None and data.run_state is not None:
        recovery_source = "checkpoint"
        all_parts = data.pool.array
        fields = data.fields
        restart_iteration = data.iteration
        restore_history(sim, data, sim._last_checkpoint)
        # survivors re-read the checkpoint from stable storage: one
        # broadcast of the full state, charged under "recovery"
        nbytes = int(all_parts.block.nbytes) + sum(
            getattr(fields, n).nbytes
            for n in ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")
        )
        with vm.phase("recovery"):
            vm.charge_comm_seconds(vm.model.collective_cost(p_new, nbytes))
    else:
        # live salvage: the pool state (including the dead rank's
        # partition) is still addressable; survivors agree on the
        # salvage in one small coordination round and restart the
        # interrupted iteration.
        recovery_source = "salvage"
        all_parts = ParticleArray.concat(sim.pic.particles)
        fields = sim.pic.fields
        restart_iteration = sim.iteration
        with vm.phase("recovery"):
            vm.charge_comm_seconds(vm.model.collective_cost(p_new, 8))

    # -- rebuild the stack on the survivors (re-distribution on the clock) --
    sim._assemble(all_parts, setup=False)
    sim.pic.fields = fields
    sim.pic.iteration = restart_iteration
    sim.iteration = restart_iteration
    vm.stats.snapshot_epoch()  # keep recovery comm out of the scatter series
    sim.n_recoveries += 1
    sim.recovery_time += (vm.elapsed() - t_fail) + plan.detect_timeout
    if tel is not None:
        tel.on_shrink(p_new, dead, restart_iteration, t=vm.elapsed())
        tel.record_event(
            "recovery",
            t=vm.elapsed(),
            iteration=restart_iteration,
            source=recovery_source,
            dead_rank=dead,
            p=p_new,
        )
