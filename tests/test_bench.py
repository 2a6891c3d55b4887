"""Tests of the virtual-time tripwire (``repro.bench``).

Covers the one-shot runner, the ``repro-bench/2`` file and its loader's
errors, the gate on any vm_seconds / op_counts difference or vanished
case, the committed baseline, and the ``repro bench`` CLI surface.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    CASES,
    SCHEMA,
    BenchCase,
    BenchObservation,
    Trajectory,
    compare,
    compare_files,
    run_cases,
)
from repro.cli import main

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def _trajectory(**cases):
    """``name=(vm_seconds, op_counts)`` -> a Trajectory."""
    return Trajectory({name: BenchObservation(vm, dict(ops)) for name, (vm, ops) in cases.items()})


class TestRunner:
    def test_warmup_and_repeats_counted(self):
        """No warmup and one repeat: setup and body each run exactly once."""
        calls = []
        case = BenchCase("t", lambda ctx: calls.append(ctx) or BenchObservation(1.0))
        run_cases([case])
        assert calls == [None]

    def test_setup_runs_once_and_feeds_context(self):
        built = []

        def setup():
            built.append(1)
            return {"n": 41}

        def body(ctx):
            ctx["n"] += 1
            return BenchObservation(vm_seconds=0.5, op_counts={"sort": 10.0 + ctx["n"]})

        (observed,) = run_cases([BenchCase("t", body, setup)]).cases.values()
        assert built == [1]
        assert observed == BenchObservation(0.5, {"sort": 52.0})

    def test_run_suite_progress_and_order(self):
        seen = []
        cases = [BenchCase(name, lambda ctx: BenchObservation(0.0)) for name in ("b", "a")]
        trajectory = run_cases(cases, progress=seen.append)
        assert seen == ["b", "a"]
        assert list(trajectory.cases) == ["b", "a"]


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path):
        path = _trajectory(c1=(1.5, {"flop": 2.0})).save(tmp_path / "BENCH_unit.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA == "repro-bench/2"
        assert set(doc) == {"schema", "environment", "cases"}
        assert set(doc["environment"]) == {"python", "platform", "numpy", "cores", "commit", "native"}
        kernels = doc["environment"]["native"]  # compiler + flags, or why not
        assert set(kernels) == ({"active", "compiler", "flags"} if kernels["active"] else {"active", "reason"})
        assert doc["cases"] == {"c1": {"vm_seconds": 1.5, "op_counts": {"flop": 2.0}}}

        loaded = Trajectory.load(path)
        assert loaded.environment == doc["environment"]
        assert loaded.cases == {"c1": BenchObservation(1.5, {"flop": 2.0})}

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro-bench/1", "cases": {}}))
        with pytest.raises(ValueError, match="unsupported schema"):
            Trajectory.load(path)

    @pytest.mark.parametrize("doc, said", [
        ([1, 2], "not a JSON object"),
        ({"schema": SCHEMA}, "no 'cases' mapping"),
        ({"schema": SCHEMA, "cases": {"hot": {"op_counts": {}}}}, "case 'hot' has no numeric vm_seconds"),
        ({"schema": SCHEMA, "cases": {"hot": {"vm_seconds": 1.0, "op_counts": [1]}}},
         "case 'hot' has no op_counts mapping"),
    ], ids=["not-object", "no-cases", "no-vm-seconds", "bad-op-counts"])  # fmt: skip
    def test_malformed_file_is_one_line_error(self, tmp_path, capsys, doc, said):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"bad.json: {said}"):
            Trajectory.load(bad)
        with pytest.raises(SystemExit, match=said):
            main(["bench", "compare", str(BASELINE), str(bad)])


class TestCompareGating:
    def test_injected_50pct_slowdown_fails_gate(self, tmp_path):
        old = _trajectory(hot=(1.0, {}), ok=(1.0, {}))
        new = _trajectory(hot=(1.5, {}), ok=(1.0, {}))
        cmp = compare(old, new)
        assert not cmp.ok
        assert [d.name for d in cmp.behaviour_changes] == ["hot"]
        assert cmp.deltas[0].vm_ratio == pytest.approx(1.5)
        po, pn = old.save(tmp_path / "old.json"), new.save(tmp_path / "new.json")
        assert compare_files(po, pn).ok is False
        assert main(["bench", "compare", str(po), str(pn)]) == 1

    def test_within_threshold_passes(self):
        """The only tolerance is rel 1e-9 on vm_seconds: a last-bit float
        difference is not a change."""
        old = _trajectory(hot=(2.0, {"scatter": 8.0}))
        assert compare(old, _trajectory(hot=(2.0 * (1 + 1e-12), {"scatter": 8.0}))).ok
        assert not compare(old, _trajectory(hot=(2.0 * (1 + 1e-8), {"scatter": 8.0}))).ok

    def test_improvement_detected(self):
        """Less virtual time is a behaviour change too: it fails until the
        baseline is regenerated on purpose."""
        cmp = compare(_trajectory(hot=(1.0, {})), _trajectory(hot=(0.5, {})))
        assert [d.name for d in cmp.behaviour_changes] == ["hot"] and not cmp.ok

    def test_case_set_changes_reported(self):
        cmp = compare(_trajectory(gone=(1.0, {}), kept=(1.0, {})),
                      _trajectory(kept=(1.0, {}), added=(1.0, {})))  # fmt: skip
        assert cmp.only_old == ["gone"] and cmp.only_new == ["added"]
        assert cmp.to_dict()["only_old"] == ["gone"]

    def test_vanished_case_fails_and_added_case_does_not(self, tmp_path, capsys):
        base = _trajectory(kept=(1.0, {}), gone=(1.0, {}))
        assert not compare(base, _trajectory(kept=(1.0, {}))).ok
        assert compare(base, _trajectory(kept=(1.0, {}), gone=(1.0, {}), added=(2.0, {}))).ok
        po = base.save(tmp_path / "old.json")
        pn = _trajectory(kept=(1.0, {})).save(tmp_path / "new.json")
        assert main(["bench", "compare", str(po), str(pn)]) == 1
        out = capsys.readouterr().out
        assert "MISSING from new: gone" in out and "1 baseline case(s) missing" in out

    def test_vm_or_op_delta_fails_gate(self, tmp_path):
        """Virtual time and op counts are deterministic: any difference
        between two files is a behaviour change and fails the comparison."""
        same = _trajectory(hot=(2.0, {"scatter": 8.0}))
        assert compare(same, same).ok
        for vm, ops in ((2.0 * 1.01, {"scatter": 8.0}), (2.0, {"scatter": 9.0}), (2.0, {})):
            new = _trajectory(hot=(vm, ops))
            cmp = compare(same, new)
            assert [d.name for d in cmp.behaviour_changes] == ["hot"] and not cmp.ok
        assert cmp.to_dict()["cases"]["hot"]["behaviour_changed"] is True
        po, pn = same.save(tmp_path / "old.json"), new.save(tmp_path / "new.json")
        assert main(["bench", "compare", str(po), str(pn)]) == 1


class TestCases:
    def test_case_list_matches_the_baseline(self):
        names = [case.name for case in CASES]
        assert len(names) == len(set(names)) == 16
        assert list(Trajectory.load(BASELINE).cases) == names


class TestBenchCLI:
    def test_run_matches_the_committed_baseline(self, tmp_path, capsys):
        """The tripwire itself: a fresh run equals ``BENCH_baseline.json``
        case by case, whichever particle kernels run."""
        out = tmp_path / "BENCH_smoke.json"
        assert main(["bench", "run", "--output", str(out)]) == 0
        assert "bench (16 cases)" in capsys.readouterr().out
        assert main(["bench", "compare", str(BASELINE), str(out)]) == 0
        assert "bench compare: OK" in capsys.readouterr().out

    def test_run_single_case_writes_trajectory(self, tmp_path):
        (case,) = [c for c in CASES if c.name == "ghost_table_direct"]
        out = run_cases([case]).save(tmp_path / "BENCH_one.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["cases"]["ghost_table_direct"] == {
            "vm_seconds": 0.024, "op_counts": {"table": 60000.0}
        }  # fmt: skip

    def test_compare_ok_and_json(self, tmp_path, capsys):
        suite = _trajectory(hot=(1.0, {"push": 3.0}))
        po = suite.save(tmp_path / "old.json")
        pn = suite.save(tmp_path / "new.json")
        assert main(["bench", "compare", str(po), str(pn), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["only_old"] == [] and doc["only_new"] == []
        assert doc["cases"]["hot"]["vm_ratio"] == pytest.approx(1.0)

    def test_compare_ignores_different_kernels(self, tmp_path, capsys, numpy_kernels):
        """Files from the compiled kernels and from the NumPy bodies, or
        from before the ``native`` stamp, compare on their numbers only."""
        forced = _trajectory(hot=(1.0, {})).save(tmp_path / "new.json")
        stamped = json.loads(forced.read_text())
        assert stamped["environment"]["native"] == {
            "active": False, "reason": "forced by the numpy_kernels fixture"
        }  # fmt: skip
        stamped["environment"]["native"] = {"active": True, "compiler": "/usr/bin/cc", "flags": ["-O2"]}
        (tmp_path / "old.json").write_text(json.dumps(stamped))
        del stamped["environment"]["native"]
        (tmp_path / "older.json").write_text(json.dumps(stamped))
        for old in ("old.json", "older.json"):
            assert main(["bench", "compare", str(tmp_path / old), str(forced)]) == 0
            assert "bench compare: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bench", "list"],
        ["bench", "policy"],
        ["bench", "run", "--suite", "smoke"],
        ["bench", "run", "--case", "scatter_static"],
        ["bench", "run", "--repeats", "1"],
        ["bench", "compare", "a.json", "b.json", "--threshold", "0.2"],
    ], ids=" ".join)  # fmt: skip
    def test_removed_surface_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
