#!/usr/bin/env python
"""Visualize alignment: mesh ownership vs particle placement.

Renders (as ASCII) the Hilbert mesh decomposition, the irregular
particle density, and the dominant particle owner per cell — before and
after a redistribution.  Before redistribution (after the blob has
drifted) the particle-owner map disagrees with the mesh map along the
blob edges; redistribution realigns them.

Run:  python examples/domain_visualization.py
"""

import numpy as np

from repro.analysis import density_map, ownership_map, particle_assignment_map
from repro.core import ParticlePartitioner, Redistributor
from repro.machine import VirtualMachine
from repro.mesh import CurveBlockDecomposition, Grid2D
from repro.particles import ParticlePool, gaussian_blob
from repro.pic.push import boris_push


def agreement(grid, decomp, local):
    mesh_lines = ownership_map(decomp).splitlines()[1:]
    part_lines = particle_assignment_map(grid, local).splitlines()[1:]
    same = occupied = 0
    for mrow, prow in zip(mesh_lines, part_lines):
        for m, p in zip(mrow, prow):
            if p != ".":
                occupied += 1
                same += m == p
    return same / max(occupied, 1)


def main() -> None:
    grid = Grid2D(32, 16)
    particles = gaussian_blob(grid, 4096, vth=0.4, rng=11)
    p = 8
    vm = VirtualMachine(p)
    decomp = CurveBlockDecomposition(grid, p, "hilbert")
    partitioner = ParticlePartitioner(grid, "hilbert")
    redis = Redistributor(partitioner)
    pool = ParticlePool.from_ranks(partitioner.initial_partition(particles, p))
    pool = redis.initialize(vm, pool).pool
    local = pool.views

    print(ownership_map(decomp))
    print()
    print(density_map(grid, particles))
    print()
    print(f"alignment right after distribution: {agreement(grid, decomp, local):.0%}")

    # let the blob fly apart ballistically for a while
    for parts in local:
        e = np.zeros((3, parts.n))
        b = np.zeros((3, parts.n))
        for _ in range(12):
            boris_push(grid, parts, e, b, dt=1.0)
    drifted = agreement(grid, decomp, local)
    print(f"alignment after 12 drift steps:     {drifted:.0%}")
    print()
    print(particle_assignment_map(grid, local))

    local = redis.redistribute(vm, pool).pool.views
    realigned = agreement(grid, decomp, local)
    print()
    print(particle_assignment_map(grid, local))
    print()
    print(f"alignment after redistribution:     {realigned:.0%}")
    assert realigned > drifted
    print("redistribution restored mesh/particle alignment.")


if __name__ == "__main__":
    main()
