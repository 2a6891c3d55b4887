#!/usr/bin/env python
"""Profile where the virtual time goes, phase by phase.

Runs with telemetry on and periodic redistribution, then renders the
iteration records' per-phase times as an ASCII stacked-share profile:
scatter and gather shares grow as the particle subdomains drift, and
redistribution spikes (R) appear at every firing.

Run:  python examples/phase_profile.py
"""

from repro import Simulation, SimulationConfig
from repro.analysis import format_table
from repro.telemetry.report import render_phase_profile


def main() -> None:
    config = SimulationConfig(
        nx=64,
        ny=32,
        nparticles=8192,
        p=16,
        distribution="irregular",
        policy="periodic:25",
        seed=3,
        vth=0.08,
    )
    iterations = 100
    with Simulation(config) as sim:
        telemetry = sim.enable_telemetry()
        sim.run(iterations)
    rows = [rec["phase_time"] for rec in telemetry.records if rec["type"] == "iteration"]

    print(render_phase_profile(rows, width=60))
    print()
    totals: dict[str, float] = {}
    for row in rows:
        for phase, seconds in row.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    print(format_table(
        ["phase", "total (virtual s)"],
        sorted(totals.items(), key=lambda kv: -kv[1]),
        title=f"Phase totals over {iterations} iterations",
    ))


if __name__ == "__main__":
    main()
