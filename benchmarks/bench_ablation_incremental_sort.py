"""Ablation (paper Figure 11 claim) — incremental vs from-scratch
redistribution cost as a function of drift magnitude.

The bucket incremental sort should beat the full sample sort when few
particles changed rank, and its advantage should shrink as the drift
grows (in the limit of total shuffling everything moves anyway).
"""

from __future__ import annotations

import numpy as np

from benchmarks._shared import write_report
from repro.analysis import format_table
from repro.core.incremental_sort import BucketState, bucket_incremental_sort
from repro.machine import MachineModel, VirtualMachine
from repro.particles.sort import KeyedBlock, parallel_sample_sort

P = 16
N_PER = 2000


def build_state(seed=0):
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 10**6, P * N_PER))
    return BucketState.build(keys, np.arange(P + 1) * N_PER, 16)


def run_ablation():
    rows = []
    for drift in (10, 1000, 50000, 500000):
        rng = np.random.default_rng(drift)
        state = build_state()
        new_keys = np.concatenate([
            np.maximum(state.keys[a:b] + rng.integers(-drift, drift + 1, b - a), 0)
            for a, b in zip(state.offsets[:-1], state.offsets[1:])
        ])  # fmt: skip
        block = KeyedBlock(state.keys.reshape(1, -1).astype(float), new_keys, state.offsets)
        vm_inc = VirtualMachine(P, MachineModel.cm5())
        _, stats = bucket_incremental_sort(vm_inc, state, block)
        vm_full = VirtualMachine(P, MachineModel.cm5())
        parallel_sample_sort(vm_full, block)
        moved_frac = stats.moved_rank / stats.total
        rows.append([drift, moved_frac, vm_inc.elapsed(), vm_full.elapsed()])
    return rows


def bench_ablation_incremental_sort(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report = format_table(
        ["drift", "fraction moved rank", "incremental (s)", "full sort (s)"],
        rows,
        title="Ablation: incremental vs from-scratch redistribution "
        f"({P} procs, {P * N_PER} elements)",
    )
    write_report("ablation_incremental_sort", report)

    for drift, moved, inc, full in rows:
        assert inc < full, f"incremental must beat full sort at drift={drift}"
    # advantage shrinks as drift grows
    ratios = [inc / full for _, _, inc, full in rows]
    assert ratios[0] < ratios[-1], "small drifts must benefit more than large ones"
    assert rows[0][1] < rows[-1][1], "moved fraction must grow with drift"
