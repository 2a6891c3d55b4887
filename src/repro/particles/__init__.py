"""Particle substrate: block storage, samplers, parallel sort.

The particle array is one of the paper's two irregularly coupled data
arrays.  It is one ``(9, n)`` float64 block, a row per attribute
(positions, relativistic momenta, charge, mass, weight, persistent ids),
and crosses the virtual machine as column ranges of that block.
"""

from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.init import (
    gaussian_blob,
    ring_distribution,
    two_stream,
    uniform_plasma,
)
from repro.particles.sort import KeyedBlock, parallel_sample_sort, regular_samples

__all__ = [
    "ParticleArray",
    "ParticlePool",
    "KeyedBlock",
    "uniform_plasma",
    "gaussian_blob",
    "two_stream",
    "ring_distribution",
    "parallel_sample_sort",
    "regular_samples",
]
