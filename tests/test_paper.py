"""Tests for ``python -m repro paper`` (repro.workloads.paper)."""

import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.workloads import paper

ROOT = Path(__file__).resolve().parent.parent


def tiny(scale):
    """A two-run experiment small enough for a unit test."""
    runs = yield {
        policy: paper._job(f"tiny {policy}", 3, nx=16, ny=8, nparticles=256, p=4, policy=policy)
        for policy in ("static", "dynamic")
    }
    iterations = {run["totals"]["iterations"] for run in runs.values()}
    return paper._verdicts(f"tiny: {sorted(runs)}", ("three iterations each", iterations == {3}))


def only(monkeypatch, **experiments):
    """Narrow the registry to ``experiments`` (name -> experiment)."""
    monkeypatch.setattr(paper, "EXPERIMENTS", experiments)


def test_the_committed_doc_has_a_block_for_every_experiment():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for name in paper.EXPERIMENTS:
        assert all(marker in text for marker in paper._markers(name)), name


def test_a_doctored_row_fails_the_check_and_names_the_table(tmp_path, monkeypatch, capsys):
    only(monkeypatch, ablation_ghost_tables=paper.EXPERIMENTS["ablation_ghost_tables"])
    doc = tmp_path / "EXPERIMENTS.md"
    shutil.copy(ROOT / "EXPERIMENTS.md", doc)
    args = dict(check=True, doc=doc, cache=tmp_path / "cache")
    assert paper.main(**args) == 0
    begin, _ = paper._markers("ablation_ghost_tables")
    head, _, rest = doc.read_text().partition(begin)
    doc.write_text(head + begin + rest.replace("hash", "hush", 1))
    capsys.readouterr()
    assert paper.main(**args) == 1
    out = capsys.readouterr().out
    assert "stale for ablation_ghost_tables" in out and "-  hush" in out and "+  hash" in out


def test_the_batch_writes_its_block_and_a_rerun_launches_no_worker(tmp_path, monkeypatch, capsys):
    only(monkeypatch, tiny=tiny)
    doc = tmp_path / "doc.md"
    begin, end = paper._markers("tiny")
    doc.write_text(f"intro\n{begin}stale\n{end}\noutro\n")
    args = dict(doc=doc, cache=tmp_path / "cache")
    assert paper.main(**args) == 0
    assert "2 jobs, 0 cache hits, 2 workers launched" in capsys.readouterr().out
    text = doc.read_text()
    assert text.startswith("intro\n") and text.endswith("\noutro\n")
    assert "tiny: ['dynamic', 'static']" in text and "shape reproduced" in text
    assert paper.main(check=True, **args) == 0
    assert "2 jobs, 2 cache hits, 0 workers launched" in capsys.readouterr().out


def test_a_failed_shape_exits_nonzero_until_the_doc_records_it(tmp_path, monkeypatch, capsys):
    broken = paper._verdicts("rows", ("a claim", False))
    only(monkeypatch, broken=lambda scale: broken)
    doc = tmp_path / "doc.md"
    doc.write_text("".join(paper._markers("broken")))
    args = dict(doc=doc, cache=tmp_path / "cache")
    assert paper.main(check=True, **args) == 1  # the doc does not say so yet
    assert paper.main(**args) == 1
    assert "shape NOT REPRODUCED: a claim" in doc.read_text()
    assert "NOT REPRODUCED: broken" in capsys.readouterr().out
    assert paper.main(check=True, **args) == 0  # recorded, never loosened


def test_missing_markers_and_bad_arguments_are_reported(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("no markers\n")
    with pytest.raises(SystemExit, match="markers of table1, fig16, fig17"):
        paper.main(doc=doc, cache=tmp_path / "cache")
    with pytest.raises(SystemExit, match="not found"):
        paper.main(doc=tmp_path / "missing.md")
    with pytest.raises(SystemExit, match="drop --scale"):
        cli_main(["paper", "--check", "--scale", "0.5", "--doc", str(doc)])
