"""Particle substrate: structure-of-arrays storage, samplers, parallel sort.

The particle array is one of the paper's two irregularly coupled data
arrays.  It is stored SoA (positions, relativistic momenta, charge,
mass, weight, persistent ids) with a dense-matrix wire format for
communication through the virtual machine.
"""

from repro.particles.arrays import ParticleArray, ParticlePool
from repro.particles.init import (
    gaussian_blob,
    ring_distribution,
    two_stream,
    uniform_plasma,
)
from repro.particles.sort import KeyedRows, parallel_sample_sort, regular_samples

__all__ = [
    "ParticleArray",
    "ParticlePool",
    "KeyedRows",
    "uniform_plasma",
    "gaussian_blob",
    "two_stream",
    "ring_distribution",
    "parallel_sample_sort",
    "regular_samples",
]
