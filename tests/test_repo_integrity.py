"""Repo-integrity checks: documentation references real artifacts."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDesignDoc:
    def test_bench_targets_exist(self):
        """DESIGN.md's figure -> experiment table names real experiments."""
        from repro.workloads.paper import EXPERIMENTS

        text = (ROOT / "DESIGN.md").read_text()
        rows = r"^\| (?:Table \d|Fig \d+|\(ablation\)) \|.*\| `(\w+)` \|$"
        targets = re.findall(rows, text, re.M)
        assert targets, "DESIGN.md must map the paper's figures to experiments"
        for name in targets:
            assert name in EXPERIMENTS, f"missing experiment {name}"

    def test_every_paper_table_and_figure_has_a_bench(self):
        """The evaluation section has Table 1-3 and Figures 16-22; each
        must be an experiment of ``repro paper``."""
        from repro.workloads.paper import EXPERIMENTS

        required = [f"table{i}" for i in (1, 2, 3)] + [f"fig{i}" for i in range(16, 23)]
        for name in required:
            assert name in EXPERIMENTS, f"missing paper experiment {name}"
        assert not list((ROOT / "benchmarks").glob("bench_*.py"))


class TestReadme:
    def test_examples_listed_exist(self):
        text = (ROOT / "README.md").read_text()
        names = re.findall(r"`(\w+\.py)`", text)
        for name in set(names):
            if (ROOT / "examples" / name).exists():
                continue
            # names like pyproject-ish entries are fine; only enforce
            # files presented in the examples table
            assert f"examples/{name}" not in text, f"README references missing {name}"

    def test_quickstart_code_runs(self):
        """The README quickstart snippet must execute as written."""
        from repro import Simulation, SimulationConfig

        config = SimulationConfig(
            nx=64, ny=32, nparticles=8192, p=16,
            distribution="irregular", scheme="hilbert", policy="dynamic",
        )
        result = Simulation(config).run(5)
        assert result.total_time > 0


class TestPackageMetadata:
    def test_version_importable(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_pic_exports_resolve(self):
        import repro.pic as pic

        for name in pic.__all__:
            assert hasattr(pic, name), name

    def test_built_package_ships_the_kernel_source(self, tmp_path):
        """``repro.native`` compiles ``pic_kernels.c`` on first use, so an
        installed package needs it beside the loader: build the package
        (a copy, so no egg-info lands in the tree) and look."""
        pytest.importorskip("setuptools")
        import shutil
        import subprocess
        import sys

        from repro import native

        assert native.SOURCE.is_file() and native.SOURCE.parent == ROOT / "src/repro/native"
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp_path / name)
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        subprocess.run(
            [sys.executable, "-W", "ignore", "-c", "from setuptools import setup; setup()",
             "-q", "build_py", "--build-lib", "built"],
            cwd=tmp_path, check=True, capture_output=True, timeout=120,
        )  # fmt: skip
        built = tmp_path / "built/repro/native"
        assert (built / "pic_kernels.c").read_bytes() == native.SOURCE.read_bytes()
        assert not list(built.glob("*.so")), "no build product belongs in the package"

    def test_particle_path_imports_no_process_machinery(self):
        """``workers=N`` is threads over the one in-process pool: nothing
        under ``parallel_exec`` or ``pic`` reaches for shared-memory blocks
        or their resource tracker."""
        offenders = [
            f"{path.relative_to(ROOT)}: {word}"
            for package in ("parallel_exec", "pic")
            for path in sorted((ROOT / "src/repro" / package).glob("*.py"))
            for word in ("shared_memory", "resource_tracker")
            if word in path.read_text()
        ]
        assert not offenders, offenders
        assert not (ROOT / "src/repro/parallel_exec/shm.py").exists()
        assert not (ROOT / "src/repro/parallel_exec/pool.py").exists()

    def test_one_stepper_family_in_src(self):
        """The 3-D extension is deleted and the replicated-mesh baseline lives
        beside the paper experiment that runs it, in ``repro.workloads``:
        every other package of ``src/repro`` is free of both, and
        ``src/repro`` holds one pooled stepper base with exactly two kernel
        bodies, and ``step`` is the base's."""
        import ast
        import importlib
        import pkgutil

        import repro
        from repro.pic.parallel import PooledParticles

        offenders = []
        for path in sorted((ROOT / "src/repro").rglob("*.py")):
            rel = path.relative_to(ROOT)
            gone = ("ext3d",) if path.parent.name == "workloads" else ("ext3d", "replicated")
            if any(word in part for part in rel.parts for word in gone):
                offenders.append(f"{rel} (name)")
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name for alias in node.names]
                offenders += [f"{rel}: imports {n}" for n in names for w in gone if w in n.lower()]
        assert not offenders, offenders

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if not info.name.endswith("__main__"):  # importing it runs the CLI
                importlib.import_module(info.name)

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        in_src = {c for c in subclasses(PooledParticles) if c.__module__.startswith("repro.")}
        assert {c.__name__ for c in in_src} == {"ParallelPIC", "ParallelYeePIC"}
        for cls in in_src:
            assert "step" not in vars(cls), f"{cls.__name__} redefines step()"
            assert cls.PHASES and cls.SOLVER is not None

    def test_docs_mention_no_deleted_path(self):
        deleted = (
            "repro.ext3d",
            "repro/ext3d",
            "ext3d/",
            "hilbert3d_partition",
            "test_ext3d",
            "pic/replicated.py",
            "pic.replicated",
            "bench policy",
            "REPRO_BENCH_WORKERS",
            "BENCH_policies",
        )
        docs = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
        stale = [
            f"{doc.relative_to(ROOT)}: {word}"
            for doc in docs
            for word in deleted
            if word in doc.read_text()
        ]
        assert not stale, stale

    def test_license_present(self):
        assert (ROOT / "LICENSE").read_text().startswith("MIT License")

    def test_docstring_coverage(self):
        """Every public module, class, and function ships a docstring."""
        import importlib
        import inspect
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            module = importlib.import_module(info.name)
            if not module.__doc__:
                missing.append(info.name)
            for attr_name, obj in vars(module).items():
                if attr_name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != info.name:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{info.name}.{attr_name}")
        assert not missing, f"missing docstrings: {missing}"
