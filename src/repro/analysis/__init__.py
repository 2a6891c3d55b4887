"""Analysis and reporting: efficiency tables, text rendering of figures."""

from repro.analysis.efficiency import efficiency, speedup
from repro.analysis.visualize import density_map, ownership_map, particle_assignment_map
from repro.telemetry.report import ascii_series, format_table

__all__ = [
    "speedup",
    "efficiency",
    "format_table",
    "ascii_series",
    "density_map",
    "ownership_map",
    "particle_assignment_map",
]
