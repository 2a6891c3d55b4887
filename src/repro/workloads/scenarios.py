"""The paper's experimental configurations, as data.

Mesh/particle pairs, distributions, processor counts, and iteration
counts from §6 of the paper:

* Figure 16 — 2000 iterations, 32 nodes, three (mesh, particles) pairs,
  static vs periodic k in {200, 100, 50, 25, 10, 5}.
* Figures 17–19 — irregular, 128x64 mesh, 32768 particles, 32 nodes.
* Figure 20 — 200 iterations, periodic vs dynamic.
* Table 2 / Figures 21–22 — 200 iterations, Hilbert vs snake, uniform
  and irregular, meshes 256x128 and 512x256, 32/64/128 processors.

``python -m repro paper`` (:mod:`repro.workloads.paper`) runs them at
the paper's counts; ``--scale`` shortens every run through
:func:`scaled_iterations` for a quick look.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PaperCase",
    "FIG16_CASES",
    "FIG17_CASE",
    "FIG20_CASE",
    "TABLE2_CASES",
    "scaled_iterations",
]


@dataclass(frozen=True)
class PaperCase:
    """One experimental configuration from the paper's §6."""

    name: str
    nx: int
    ny: int
    nparticles: int
    p: int
    distribution: str
    iterations: int

    def config_kwargs(self) -> dict:
        """Keyword arguments for :class:`repro.pic.SimulationConfig`."""
        return dict(
            nx=self.nx,
            ny=self.ny,
            nparticles=self.nparticles,
            p=self.p,
            distribution=self.distribution,
        )


#: Figure 16 — static vs periodic, 2000 iterations on 32 nodes.  The
#: paper shows three (grid, particle) pairs; it names 128x64 with 32768
#: particles explicitly (Figs 17-19 use it), we pair it with the two
#: smaller/larger combinations of its Table 2 family.
FIG16_CASES: tuple[PaperCase, ...] = (
    PaperCase("mesh64x32-n16384", 64, 32, 16384, 32, "irregular", 2000),
    PaperCase("mesh128x64-n32768", 128, 64, 32768, 32, "irregular", 2000),
    PaperCase("mesh128x64-n65536", 128, 64, 65536, 32, "irregular", 2000),
)

#: Figures 17, 18, 19 — per-iteration series.
FIG17_CASE = PaperCase("fig17", 128, 64, 32768, 32, "irregular", 2000)

#: Figure 20 — periodic vs dynamic over 200 iterations.
FIG20_CASE = PaperCase("fig20", 128, 64, 32768, 32, "irregular", 200)

#: Table 2 / Figures 21-22 — indexing comparison over 200 iterations.
#: (distribution x mesh x particles x processors sweep; the paper pairs
#: mesh 256x128 with 32768/65536 particles and 512x256 with
#: 65536/131072.)
TABLE2_CASES: tuple[PaperCase, ...] = tuple(
    PaperCase(
        f"{dist}-{nx}x{ny}-n{n}-p{p}",
        nx,
        ny,
        n,
        p,
        dist,
        200,
    )
    for dist in ("uniform", "irregular")
    for (nx, ny, n) in ((256, 128, 32768), (256, 128, 65536), (512, 256, 65536), (512, 256, 131072))
    for p in (32, 64, 128)
)


def scaled_iterations(case_iterations: int, scale: float, *, minimum: int = 20) -> int:
    """A paper iteration count times ``scale`` (> 0), floored at ``minimum``."""
    if not scale > 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return max(minimum, int(round(case_iterations * scale)))
