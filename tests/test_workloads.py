"""Tests for the paper-case workload catalogue."""

import pytest

from repro.cli import main as cli_main
from repro.pic import SimulationConfig
from repro.workloads import FIG16_CASES, FIG17_CASE, FIG20_CASE, TABLE2_CASES, scaled_iterations


class TestCatalogue:
    def test_fig17_matches_paper(self):
        case = FIG17_CASE
        assert (case.nx, case.ny) == (128, 64)
        assert case.nparticles == 32768
        assert case.p == 32
        assert case.distribution == "irregular"

    def test_fig16_has_three_pairs(self):
        assert len(FIG16_CASES) == 3
        assert all(c.iterations == 2000 and c.p == 32 for c in FIG16_CASES)

    def test_table2_sweep_dimensions(self):
        assert len(TABLE2_CASES) == 2 * 4 * 3  # dist x (mesh, n) x p
        ps = {c.p for c in TABLE2_CASES}
        assert ps == {32, 64, 128}
        dists = {c.distribution for c in TABLE2_CASES}
        assert dists == {"uniform", "irregular"}

    def test_average_four_particles_per_cell(self):
        """The paper notes 32768 particles on 128x64 is 4 per cell."""
        case = FIG17_CASE
        assert case.nparticles / (case.nx * case.ny) == pytest.approx(4.0)

    def test_config_kwargs_build_valid_configs(self):
        for case in (FIG17_CASE, FIG20_CASE) + FIG16_CASES[:1]:
            cfg = SimulationConfig(**case.config_kwargs())
            assert cfg.nx == case.nx


class TestCaseImmutability:
    def test_paper_cases_frozen(self):
        with pytest.raises(Exception):
            FIG17_CASE.nparticles = 1

    def test_all_case_names_unique(self):
        names = [c.name for c in FIG16_CASES + TABLE2_CASES] + [
            FIG17_CASE.name,
            FIG20_CASE.name,
        ]
        assert len(names) == len(set(names))


class TestScaling:
    def test_scaled_iterations_default(self):
        """``repro paper``'s default scale is the paper's own lengths."""
        assert scaled_iterations(2000, 1.0) == 2000

    def test_scaled_iterations_tenth(self):
        assert scaled_iterations(2000, 0.1) == 200

    def test_minimum_floor(self):
        assert scaled_iterations(2000, 0.001, minimum=20) == 20

    def test_bad_scale_value(self):
        with pytest.raises(SystemExit):
            cli_main(["paper", "--scale", "lots"])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scaled_iterations(2000, 0)
