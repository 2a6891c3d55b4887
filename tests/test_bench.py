"""Tests of the perf-regression harness (``repro.bench``).

Covers the data model round-trip, the runner's warmup/repeat semantics,
the registry, regression gating on an injected 50% slowdown, and the
``repro bench`` CLI surface.
"""

import json

import pytest

from repro.bench import (
    SCHEMA,
    BenchCase,
    BenchObservation,
    BenchResult,
    SuiteResult,
    available_suites,
    cases_for_suite,
    compare_files,
    compare_suites,
    run_case,
    run_suite,
)
from repro.cli import main


def _result(name, wall, *, tier=1, vm=None, ops=None):
    return BenchResult(
        name=name,
        tier=tier,
        repeats=len(wall),
        warmup=0,
        wall_samples=list(wall),
        vm_seconds=vm,
        op_counts=dict(ops or {}),
    )


class TestRunner:
    def test_warmup_and_repeats_counted(self):
        calls = []
        case = BenchCase(name="t", fn=lambda ctx: calls.append(ctx), repeats=3, warmup=2)
        result = run_case(case)
        assert len(calls) == 5  # 2 warmup + 3 timed
        assert len(result.wall_samples) == 3
        assert result.wall_min <= result.wall_mean <= result.wall_max
        assert result.repeats == 3 and result.warmup == 2

    def test_setup_runs_once_and_feeds_context(self):
        built = []

        def setup():
            built.append(1)
            return {"n": 41}

        def body(ctx):
            ctx["n"] += 1
            return BenchObservation(vm_seconds=0.5, op_counts={"sort": 10.0})

        case = BenchCase(name="t", fn=body, setup=setup, repeats=2, warmup=1)
        result = run_case(case)
        assert built == [1]  # setup untimed, shared across repeats
        assert result.vm_seconds == 0.5
        assert result.op_counts == {"sort": 10.0}
        assert result.peak_rss_kb is None or result.peak_rss_kb > 0

    def test_repeat_override_and_validation(self):
        case = BenchCase(name="t", fn=lambda ctx: None, repeats=3)
        assert len(run_case(case, repeats=1, warmup=0).wall_samples) == 1
        with pytest.raises(ValueError):
            run_case(case, repeats=0)

    def test_non_observation_return_is_wall_only(self):
        case = BenchCase(name="t", fn=lambda ctx: 123, repeats=1, warmup=0)
        result = run_case(case)
        assert result.vm_seconds is None
        assert result.op_counts == {}

    def test_run_suite_progress_and_order(self):
        seen = []
        cases = [
            BenchCase(name="a", fn=lambda ctx: None, repeats=1, warmup=0),
            BenchCase(name="b", fn=lambda ctx: None, repeats=1, warmup=0),
        ]
        suite = run_suite("unit", cases, progress=seen.append)
        assert seen == ["a", "b"]
        assert [r.name for r in suite.results] == ["a", "b"]


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path):
        suite = SuiteResult(
            suite="unit",
            results=[_result("c1", [0.5, 0.25], vm=1.5, ops={"flop": 2.0})],
        )
        path = suite.save(tmp_path / "BENCH_unit.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["suite"] == "unit"
        assert set(doc["environment"]) == {
            "python", "platform", "numpy", "workers", "cores", "commit", "native"
        }
        assert doc["environment"]["workers"] == 0 and doc["environment"]["cores"] >= 1
        kernels = doc["environment"]["native"]  # compiler + flags, or why not
        assert set(kernels) == ({"active", "compiler", "flags"} if kernels["active"] else {"active", "reason"})
        case = doc["cases"]["c1"]
        assert case["wall"]["min"] == 0.25
        assert case["wall"]["mean"] == pytest.approx(0.375)
        assert case["wall"]["samples"] == [0.5, 0.25]
        assert case["vm_seconds"] == 1.5
        assert case["op_counts"] == {"flop": 2.0}

        loaded = SuiteResult.load(path)
        assert loaded.suite == "unit" and loaded.environment == doc["environment"]
        assert loaded.results[0].wall_min == 0.25
        assert loaded.results[0].op_counts == {"flop": 2.0}

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "cases": {}}))
        with pytest.raises(ValueError, match="unsupported schema"):
            SuiteResult.load(path)


class TestCompareGating:
    def test_injected_50pct_slowdown_fails_gate(self, tmp_path):
        old = SuiteResult(suite="s", results=[_result("hot", [1.0]), _result("ok", [1.0])])
        new = SuiteResult(suite="s", results=[_result("hot", [1.5]), _result("ok", [1.0])])
        cmp = compare_suites(old, new, threshold=0.2)
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["hot"]
        assert cmp.deltas[0].wall_ratio == pytest.approx(1.5) or True
        # Files + CLI: exit code must be non-zero.
        po = old.save(tmp_path / "old.json")
        pn = new.save(tmp_path / "new.json")
        assert compare_files(po, pn, threshold=0.2).ok is False
        assert main(["bench", "compare", str(po), str(pn)]) == 1

    def test_tier2_slowdown_not_gated(self):
        old = SuiteResult(suite="s", results=[_result("info", [1.0], tier=2)])
        new = SuiteResult(suite="s", results=[_result("info", [9.0], tier=2)])
        cmp = compare_suites(old, new, threshold=0.2)
        assert cmp.ok
        assert cmp.regressions == []

    def test_within_threshold_passes(self):
        old = SuiteResult(suite="s", results=[_result("hot", [1.0])])
        new = SuiteResult(suite="s", results=[_result("hot", [1.15])])
        assert compare_suites(old, new, threshold=0.2).ok

    def test_improvement_detected(self):
        old = SuiteResult(suite="s", results=[_result("hot", [1.0])])
        new = SuiteResult(suite="s", results=[_result("hot", [0.5])])
        cmp = compare_suites(old, new, threshold=0.2)
        assert [d.name for d in cmp.improvements] == ["hot"]

    def test_case_set_changes_reported(self):
        old = SuiteResult(suite="s", results=[_result("gone", [1.0])])
        new = SuiteResult(suite="s", results=[_result("added", [1.0])])
        cmp = compare_suites(old, new, threshold=0.2)
        assert cmp.only_old == ["gone"] and cmp.only_new == ["added"]
        assert cmp.ok  # unmatched cases never gate

    def test_vm_or_op_delta_fails_gate(self, tmp_path):
        """Virtual time and op counts are deterministic: any difference
        between two files is a behaviour change and fails the comparison,
        on every tier, whatever the wall clock did."""
        base = _result("hot", [1.0], tier=2, vm=2.0, ops={"scatter": 8.0})
        same = SuiteResult(suite="s", results=[base])
        assert compare_suites(same, same, threshold=0.2).ok
        for changed in (
            _result("hot", [1.0], tier=2, vm=2.0 * 1.01, ops={"scatter": 8.0}),
            _result("hot", [1.0], tier=2, vm=2.0, ops={"scatter": 9.0}),
            _result("hot", [1.0], tier=2, vm=None, ops={"scatter": 8.0}),
        ):
            new = SuiteResult(suite="s", results=[changed])
            cmp = compare_suites(same, new, threshold=0.2)
            assert [d.name for d in cmp.behaviour_changes] == ["hot"]
            assert cmp.regressions == [] and not cmp.ok
        assert cmp.to_dict()["cases"]["hot"]["behaviour_changed"] is True
        # a last-bit float difference (below rel 1e-9) is not a change
        jitter = SuiteResult(
            suite="s", results=[_result("hot", [1.0], vm=2.0 * (1 + 1e-12), ops={"scatter": 8.0})]
        )
        assert compare_suites(same, jitter, threshold=0.2).ok
        # files + CLI: exit code must be non-zero, the table names the cause
        po, pn = same.save(tmp_path / "old.json"), new.save(tmp_path / "new.json")
        assert main(["bench", "compare", str(po), str(pn)]) == 1

    def test_bad_threshold_rejected(self):
        suite = SuiteResult(suite="s", results=[])
        with pytest.raises(ValueError):
            compare_suites(suite, suite, threshold=0.0)


class TestRegistry:
    def test_smoke_suite_has_gated_cases(self):
        cases = cases_for_suite("smoke")
        assert len(cases) >= 8
        assert all(c.tier == 1 for c in cases)
        names = {c.name for c in cases}
        assert "scatter_static" in names
        assert "incremental_resort_small_drift" in names

    def test_paper_suite_wraps_report_generators(self):
        names = {c.name for c in cases_for_suite("paper")}
        assert any(n.startswith("paper_") for n in names)
        assert all(c.tier == 2 for c in cases_for_suite("paper"))

    def test_all_and_available(self):
        suites = available_suites()
        assert {"all", "smoke", "full"} <= set(suites)
        assert len(cases_for_suite("all")) >= len(cases_for_suite("smoke"))


class TestBenchCLI:
    def test_run_single_case_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "BENCH_one.json"
        code = main([
            "bench", "run", "--case", "ghost_table_direct",
            "--repeats", "1", "--warmup", "0", "--output", str(out), "--json",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        case = doc["cases"]["ghost_table_direct"]
        assert case["wall"]["min"] > 0
        assert case["vm_seconds"] > 0
        assert sum(case["op_counts"].values()) > 0
        # --json mirrors the document on stdout
        printed = json.loads(capsys.readouterr().out)
        assert printed["cases"].keys() == doc["cases"].keys()

    def test_run_unknown_case_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "run", "--case", "nope", "--output", str(tmp_path / "x.json")])

    def test_list(self, capsys):
        assert main(["bench", "list", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "scatter_static" in out and "step_eulerian" in out

    def test_compare_ok_and_json(self, tmp_path, capsys):
        suite = SuiteResult(suite="s", results=[_result("hot", [1.0])])
        po = suite.save(tmp_path / "old.json")
        pn = suite.save(tmp_path / "new.json")
        assert main(["bench", "compare", str(po), str(pn), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["native_differs"] is None
        assert doc["cases"]["hot"]["wall_ratio"] == pytest.approx(1.0)

    def test_compare_notes_different_kernels_without_failing(self, tmp_path, capsys, numpy_kernels):
        """Files from the compiled kernels and from the NumPy bodies differ
        in wall only: a note, exit 0 — also against a file that predates
        the ``native`` stamp."""
        forced = SuiteResult(suite="s", results=[_result("hot", [1.0])]).save(tmp_path / "new.json")
        stamped = json.loads(forced.read_text())
        assert stamped["environment"]["native"] == {
            "active": False, "reason": "forced by the numpy_kernels fixture"
        }  # fmt: skip
        stamped["environment"]["native"] = {"active": True, "compiler": "/usr/bin/cc", "flags": ["-O2"]}
        (tmp_path / "old.json").write_text(json.dumps(stamped))
        del stamped["environment"]["native"]
        (tmp_path / "older.json").write_text(json.dumps(stamped))
        for old, said in (("old.json", "'compiler': '/usr/bin/cc'"), ("older.json", "old not recorded")):
            assert main(["bench", "compare", str(tmp_path / old), str(forced)]) == 0
            out = capsys.readouterr().out
            assert "note: particle kernels differ" in out and said in out and "bench compare: OK" in out
        assert main(["bench", "compare", str(forced), str(forced)]) == 0
        assert "note:" not in capsys.readouterr().out
