"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nx == 64 and args.policy == "dynamic"

    def test_bad_distribution_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--distribution", "fractal"])


class TestCommands:
    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "hilbert" in out and "snake" in out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "fig17" in out and "128x64" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "5", "--policy", "static",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total_time" in out and "scatter" in out

    def test_run_json(self, capsys):
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "3", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 3
        assert summary["total_time"] > 0
        assert "phase_breakdown" in summary

    def test_run_named_case_overrides_geometry(self, capsys):
        code = main([
            "run", "--case", "fig20", "--iterations", "2", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 2

    def test_run_unknown_case(self):
        with pytest.raises(SystemExit, match="unknown case"):
            main(["run", "--case", "fig99"])

    def test_config_file_loaded(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nx": 16, "ny": 16, "nparticles": 512, "p": 4, "policy": "periodic:2"}')
        assert main(["run", "--config", str(cfg), "--iterations", "4", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_redistributions"] == 2

    def test_cli_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"nx": 16, "ny": 16, "nparticles": 512, "p": 4, "policy": "static"}')
        code = main([
            "run", "--config", str(cfg), "--policy", "periodic:2",
            "--iterations", "4", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_redistributions"] == 2

    def test_config_file_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"warp_factor": 9}')
        with pytest.raises(SystemExit, match="unknown config keys"):
            main(["run", "--config", str(cfg)])

    def test_config_file_bad_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["run", "--config", str(cfg)])

    def test_config_file_missing(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["run", "--config", str(tmp_path / "nope.json")])

    def test_save_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "3", "--save-json", str(out),
        ])
        assert code == 0
        saved = json.loads(out.read_text())
        assert saved["totals"]["iterations"] == 3
        assert len(saved["series"]["iteration_time"]) == 3

    def test_electrostatic_solver_flag(self, capsys):
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "2", "--field-solver", "electrostatic", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 2

    def test_run_periodic_policy(self, capsys):
        code = main([
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--iterations", "6", "--policy", "periodic:2", "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_redistributions"] == 3

    def test_config_file_accepts_density_dt_nbuckets(self, capsys, tmp_path):
        """density / dt / nbuckets are valid SimulationConfig fields with no
        CLI flag — the config loader must not reject them."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "nx": 16, "ny": 16, "nparticles": 512, "p": 4,
            "density": 0.02, "dt": 0.01, "nbuckets": 8,
        }))
        assert main(["run", "--config", str(cfg), "--iterations", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 2

    def test_config_file_model_preset(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "nx": 16, "ny": 16, "nparticles": 512, "p": 4, "model": "modern",
        }))
        assert main(["run", "--config", str(cfg), "--iterations", "2", "--json"]) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--policy", "bogus"], "unknown policy spec 'bogus'"),
            (["--scheme", "hilbrt"], "unknown scheme 'hilbrt'; available: .*hilbert"),
            (["-p", "100", "-n", "10"], "need at least one particle per rank"),
        ],
    )
    def test_bad_config_flags_exit_with_one_line(self, flags, message):
        with pytest.raises(SystemExit, match=f"^bad config: {message}") as exc:
            main(["run", "--iterations", "1", *flags])
        assert "\n" not in str(exc.value.code)

    def test_config_file_bad_model(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "vaxcluster"}')
        with pytest.raises(SystemExit, match="bad machine model"):
            main(["run", "--config", str(cfg)])


class TestConfigRoundtrip:
    def test_saved_config_replays_identically(self, tmp_path, capsys):
        """save_json's config block feeds back through --config and
        reproduces the identical run."""
        first = tmp_path / "first.json"
        argv = [
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--distribution", "irregular", "--policy", "periodic:2",
            "--vth", "0.2", "--seed", "7", "--iterations", "5",
        ]
        assert main(argv + ["--save-json", str(first)]) == 0
        capsys.readouterr()

        saved = json.loads(first.read_text())
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(saved["config"]))

        second = tmp_path / "second.json"
        assert main([
            "run", "--config", str(cfg_file), "--iterations", "5",
            "--save-json", str(second),
        ]) == 0
        assert json.loads(second.read_text()) == saved

    def test_legacy_engine_key_in_config_file(self, tmp_path, capsys):
        """Config blocks saved before the engine option was deleted carry
        ``"engine"``: "flat"/"looped" replay the identical run, anything
        else is an unknown key, and ``--engine`` is no flag at all."""
        first = tmp_path / "first.json"
        argv = [
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--distribution", "irregular", "--policy", "dynamic",
            "--seed", "7", "--iterations", "5",
        ]
        assert main(argv + ["--save-json", str(first)]) == 0
        saved = json.loads(first.read_text())
        assert "engine" not in saved["config"]

        cfg_file = tmp_path / "cfg.json"
        second = tmp_path / "second.json"
        for legacy in ("flat", "looped"):
            cfg_file.write_text(json.dumps({**saved["config"], "engine": legacy}))
            assert main([
                "run", "--config", str(cfg_file), "--iterations", "5",
                "--save-json", str(second),
            ]) == 0
            assert json.loads(second.read_text()) == saved

        cfg_file.write_text(json.dumps({**saved["config"], "engine": "turbo"}))
        with pytest.raises(SystemExit, match=r"unknown config keys: \['engine'\]"):
            main(["run", "--config", str(cfg_file)])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", "flat"])
        assert exc.value.code == 2  # argparse: unrecognized arguments
        assert "--engine" in capsys.readouterr().err


class TestResume:
    def _base_argv(self):
        return [
            "run", "--nx", "16", "--ny", "16", "-n", "512", "-p", "4",
            "--distribution", "irregular", "--policy", "dynamic",
            "--seed", "3", "--vth", "0.2",
        ]

    def test_resume_matches_uninterrupted(self, tmp_path, capsys):
        full = tmp_path / "full.json"
        assert main(self._base_argv() + [
            "--iterations", "8", "--save-json", str(full),
        ]) == 0
        ck = tmp_path / "ck.npz"
        assert main(self._base_argv() + [
            "--iterations", "4", "--checkpoint-every", "4",
            "--checkpoint-path", str(ck),
        ]) == 0
        resumed = tmp_path / "resumed.json"
        assert main([
            "resume", str(ck), "--iterations", "4", "--save-json", str(resumed),
        ]) == 0
        capsys.readouterr()
        assert json.loads(resumed.read_text()) == json.loads(full.read_text())

    def test_resume_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["resume", str(tmp_path / "nope.npz"), "--iterations", "1"])

    def test_resume_invalid_file(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"nope")
        with pytest.raises(SystemExit, match="cannot resume"):
            main(["resume", str(bogus), "--iterations", "1"])

    def test_checkpoint_every_without_path(self):
        with pytest.raises(SystemExit, match="checkpoint-path"):
            main(self._base_argv() + ["--iterations", "2", "--checkpoint-every", "1"])

    def test_checkpoint_every_bad_value(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-every"):
            main(self._base_argv() + [
                "--iterations", "2", "--checkpoint-every", "0",
                "--checkpoint-path", str(tmp_path / "x.npz"),
            ])

    def test_resume_keeps_checkpointing_to_source_by_default(self, tmp_path, capsys):
        ck = tmp_path / "ck.npz"
        assert main(self._base_argv() + [
            "--iterations", "2", "--checkpoint-every", "2",
            "--checkpoint-path", str(ck),
        ]) == 0
        assert main([
            "resume", str(ck), "--iterations", "2", "--checkpoint-every", "2",
        ]) == 0
        capsys.readouterr()
        from repro.pic.checkpoint import load_checkpoint

        assert load_checkpoint(ck).iteration == 4


class TestSubmitAndJobs:
    def _jobs_file(self, tmp_path, n=2):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({
            "name": "cli",
            "base": {"nx": 16, "ny": 8, "nparticles": 256, "p": 4},
            "iterations": 3,
            "sweep": {"seed": list(range(n))},
        }))
        return path

    def test_submit_then_jobs(self, tmp_path, capsys):
        jf = self._jobs_file(tmp_path)
        report = tmp_path / "report.json"
        code = main([
            "submit", str(jf), "--jobs", "2",
            "--cache", str(tmp_path / "cache"),
            "--report", str(report),
            "--metrics", str(tmp_path / "svc.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: OK" in out and "cli-seed=0" in out
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-batch/1" and doc["ok"]
        assert doc["counters"]["completed"] == 2
        lines = (tmp_path / "svc.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "repro-service/2"
        # render the saved report
        assert main(["jobs", str(report)]) == 0
        assert "batch: OK" in capsys.readouterr().out

    def test_submit_warm_cache_hits(self, tmp_path, capsys):
        jf = self._jobs_file(tmp_path)
        argv = ["submit", str(jf), "--cache", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["cache_hits"] == 2

    def test_submit_bad_file(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["submit", str(tmp_path / "nope.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("[{\"iterations\": 3}]")
        with pytest.raises(SystemExit, match="bad job file"):
            main(["submit", str(bad)])

    def test_submit_flag_validation(self, tmp_path):
        jf = self._jobs_file(tmp_path)
        for argv_extra, msg in (
            (["--jobs", "0"], "--jobs"),
            (["--retries", "-1"], "--retries"),
            (["--timeout", "0"], "--timeout"),
            (["--max-failures", "-2"], "--max-failures"),
            (["--checkpoint-every", "0"], "--checkpoint-every"),
        ):
            with pytest.raises(SystemExit, match=msg):
                main(["submit", str(jf)] + argv_extra)

    def test_jobs_missing_and_invalid(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["jobs", str(tmp_path / "nope.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"other/1\"}")
        with pytest.raises(SystemExit, match="bad batch report"):
            main(["jobs", str(bad)])


class TestTimeoutWatchdog:
    def test_run_timeout_exit_code_and_resumable(self, tmp_path, capsys):
        from repro.cli import EXIT_TIMEOUT

        ck = tmp_path / "wd.npz"
        code = main([
            "run", "--nx", "16", "--ny", "8", "-n", "256", "-p", "4",
            "--iterations", "1000000", "--policy", "static",
            "--timeout", "0.3",
            "--checkpoint-every", "1", "--checkpoint-path", str(ck),
            "--metrics", str(tmp_path / "m.jsonl"),
        ])
        assert code == EXIT_TIMEOUT == 124
        capsys.readouterr()
        assert ck.exists()
        # the timeout event is in the metrics stream
        stream = (tmp_path / "m.jsonl").read_text()
        assert '"kind": "timeout"' in stream
        # and the checkpoint resumes
        assert main(["resume", str(ck), "--iterations", "1"]) == 0
        capsys.readouterr()

    def test_run_timeout_validation(self):
        with pytest.raises(SystemExit, match="--timeout"):
            main([
                "run", "--nx", "16", "--ny", "8", "-n", "256", "-p", "4",
                "--iterations", "2", "--timeout", "-1",
            ])
