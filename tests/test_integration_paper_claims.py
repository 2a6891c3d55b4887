"""Integration tests asserting the paper's qualitative results.

These are scaled-down versions of the evaluation runs (small meshes,
fewer iterations) that must reproduce the *shape* of every headline
claim; ``python -m repro paper`` regenerates the full tables and figures.
"""

import numpy as np
import pytest

from repro.pic import Simulation, SimulationConfig


def run(policy, scheme="hilbert", dist="irregular", iters=100, p=16, **kwargs):
    params = dict(
        nx=64,
        ny=32,
        nparticles=8192,
        p=p,
        distribution=dist,
        policy=policy,
        scheme=scheme,
        seed=3,
        vth=0.08,
    )
    params.update(kwargs)
    return Simulation(SimulationConfig(**params)).run(iters)


@pytest.fixture(scope="module")
def results():
    """One shared sweep over the policies (module-scoped, ~40 s).

    250 iterations: long enough that even the most frequent period beats
    static, as in the paper's 2000-iteration Figure 16.
    """
    policies = ["static", "periodic:50", "periodic:25", "periodic:10", "periodic:5", "dynamic"]
    return {pol: run(pol, iters=250) for pol in policies}


class TestFig16StaticVsPeriodic:
    def test_every_periodic_beats_static(self, results):
        static = results["static"].total_time
        for k in (50, 25, 10, 5):
            assert results[f"periodic:{k}"].total_time < static

    def test_optimal_period_is_interior(self, results):
        """Too-frequent redistribution costs more than it saves: period 5
        must be worse than the best period (the U-shape of Fig 20)."""
        totals = {k: results[f"periodic:{k}"].total_time for k in (50, 25, 10, 5)}
        best = min(totals.values())
        assert totals[5] > best


class TestFig17to19Series:
    def test_static_series_grow(self, results):
        r = results["static"]
        t = r.iteration_times
        assert t[-10:].mean() > 1.1 * t[:10].mean()
        volumes = r.scatter_max_bytes
        assert volumes[-10:].mean() > volumes[:10].mean()
        msgs = r.scatter_max_msgs
        assert msgs[-10:].mean() >= msgs[:10].mean()

    def test_periodic_series_stay_lower(self, results):
        static = results["static"]
        periodic = results["periodic:10"]
        assert periodic.iteration_times[-10:].mean() < static.iteration_times[-10:].mean()
        assert periodic.scatter_max_bytes[-10:].mean() < static.scatter_max_bytes[-10:].mean()


class TestFig20Dynamic:
    def test_dynamic_close_to_best_periodic(self, results):
        best = min(results[f"periodic:{k}"].total_time for k in (50, 25, 10, 5))
        dynamic = results["dynamic"].total_time
        assert dynamic <= 1.05 * best

    def test_dynamic_beats_static(self, results):
        assert results["dynamic"].total_time < results["static"].total_time

    def test_dynamic_actually_redistributes(self, results):
        assert results["dynamic"].n_redistributions >= 1


class TestTable2Indexing:
    @pytest.mark.parametrize("dist", ["uniform", "irregular"])
    def test_hilbert_overhead_not_worse_than_snake(self, dist):
        hil = run("dynamic", scheme="hilbert", dist=dist, iters=60)
        snk = run("dynamic", scheme="snake", dist=dist, iters=60)
        assert hil.overhead <= 1.1 * snk.overhead

    def test_hilbert_overhead_below_snake_static(self):
        """Without any redistribution, the pure indexing-quality gap:
        Hilbert subdomains have smaller perimeters, so less scatter and
        gather traffic accumulates (overhead = execution - computation)."""
        hil = run("static", scheme="hilbert", iters=30)
        snk = run("static", scheme="snake", iters=30)
        assert hil.overhead < snk.overhead


class TestTable3Scaling:
    def test_time_decreases_with_processors(self):
        t = {}
        for p in (8, 16, 32):
            t[p] = run("dynamic", p=p, iters=40).total_time
        assert t[32] < t[16] < t[8]

    def test_constant_granularity_similar_efficiency(self):
        """n/p fixed: modeled efficiency stays within a modest band
        (the paper's scalability observation #3)."""
        cfgs = [(8, 4096), (16, 8192), (32, 16384)]
        eff = []
        for p, n in cfgs:
            r = run("dynamic", p=p, iters=40, nparticles=n)
            eff.append(r.computation_time / r.total_time)
        assert max(eff) - min(eff) < 0.2


class TestSeedRobustness:
    def test_core_ordering_holds_on_other_seeds(self):
        """The headline ordering (periodic:25 < static, dynamic <= 1.1x
        best seen) is not an artifact of the fixture seed."""
        for seed in (7, 11):
            static = run("static", iters=120, seed=seed)
            periodic = run("periodic:25", iters=120, seed=seed)
            dynamic = run("dynamic", iters=120, seed=seed)
            assert periodic.total_time < static.total_time, f"seed {seed}"
            assert dynamic.total_time < static.total_time, f"seed {seed}"
            assert dynamic.total_time <= 1.1 * periodic.total_time, f"seed {seed}"


class TestRedistributionOverheadShare:
    def test_redistribution_below_total_overhead(self, results):
        """Paper: redistribution accounted for < 20% of total overhead on
        128 processors; at our scale it must at least stay a minority
        share."""
        r = results["dynamic"]
        assert r.redistribution_time < 0.5 * r.overhead
