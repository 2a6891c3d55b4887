"""Every loop of ``pic_kernels.c`` marked ``VECTORIZED`` is vectorized by
GCC in every clone, and the file has at most seven entry points.

``python -m tests.vectorization_guard`` compiles the C file with
``repro.native.FLAGS`` plus ``-fopt-info-vec-optimized`` once per clone
target (:data:`TARGETS`: the clone attribute narrowed to that one target
by ``-DCLONED=``, see :func:`clone_define`) and prints one line per
marker: the marker's text, the line of the ``for`` that follows it, and
the targets in which GCC reported that loop vectorized.  It exits 1 when
one target did not, so an edit that silently drops a loop back to scalar
code in one clone fails here rather than in the next benchmark (a loop
outside the cloned passes is compiled alike in every build and must be
vectorized in each).  Loops are found by their marker comment, not by
line number.  It also exits 1 when the file defines more than
:data:`MAX_ENTRY_POINTS` functions that are not ``static``: a fused pass
replaces its parts rather than joining them.  GCC only: another compiler
reports vectorization in its own words (exit 2).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.native import FLAGS, SOURCE

__all__ = [
    "TARGETS",
    "marked_loops",
    "entry_points",
    "clone_define",
    "build_clones",
    "is_gcc",
    "main",
]

MARKER = "VECTORIZED:"
#: the most functions pic_kernels.c may export
MAX_ENTRY_POINTS = 7
#: the targets pic_kernels.c clones its particle passes' hot loops for
TARGETS = ("default", "x86-64-v3", "x86-64-v4")


def marked_loops(source: str) -> dict[str, int]:
    """Marker text -> 1-based line of the ``for`` statement after it."""
    lines = source.splitlines()
    loops = {}
    for number, line in enumerate(lines):
        if MARKER not in line:
            continue
        name = line.split(MARKER, 1)[1].strip().removesuffix("*/").strip()
        following = next(
            k for k in range(number + 1, len(lines)) if lines[k].strip().startswith("for (")
        )
        loops[name] = following + 1
    return loops


def entry_points(source: str) -> list[str]:
    """The functions the file defines at column 0 without ``static``."""
    return re.findall(r"^(?!static\b)[A-Za-z_][\w \t*]*?\b([A-Za-z_]\w*)\s*\(", source, re.M)


def clone_define(target: str) -> str:
    """The ``-D`` flag that builds the cloned passes for ``target`` alone."""
    if target == "default":
        return "-DCLONED="
    return f'-DCLONED=__attribute__((target("arch={target}")))'


def build_clones(cc: str, source: bytes, directory: Path, targets=TARGETS) -> dict[str, set[int]]:
    """Compile ``source`` once per target, side by side, into
    ``directory/<target>.so``: per target, the lines GCC reports as the
    start of a vectorized loop."""
    runs = {
        target: subprocess.Popen(
            [cc, *FLAGS, clone_define(target), "-fopt-info-vec-optimized", "-x", "c", "-",
             "-o", str(Path(directory) / f"{target}.so"), "-lm"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )  # fmt: skip
        for target in targets
    }
    reports = {}
    for target, run in runs.items():
        _, err = run.communicate(source, timeout=120)
        if run.returncode:
            raise subprocess.CalledProcessError(run.returncode, run.args, stderr=err)
        reports[target] = err.decode(errors="replace")
    pattern = re.compile(r"^<stdin>:(\d+):\d+: optimized: loop vectorized", re.M)
    return {t: {int(line) for line in pattern.findall(r)} for t, r in reports.items()}


def is_gcc(cc: str) -> bool:
    """``cc`` is GCC (whose ``-fopt-info`` this guard reads)."""
    version = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=60)
    return "Free Software Foundation" in version.stdout


def main() -> int:
    cc = shutil.which("cc")
    if cc is None or not is_gcc(cc):
        print(f"vectorization guard: needs GCC as cc, found {cc}", file=sys.stderr)
        return 2
    source = SOURCE.read_bytes()
    loops = marked_loops(source.decode())
    with tempfile.TemporaryDirectory() as scratch:
        done = build_clones(cc, source, Path(scratch))
    missing = []
    for name, line in loops.items():
        scalar = [target for target in TARGETS if line not in done[target]]
        missing += [f"{name} ({target})" for target in scalar]
        print(f"{'SCALAR' if scalar else 'vectorized':<11} line {line:<4} {name:<28} "
              f"{' '.join(t for t in TARGETS if t not in scalar)}")  # fmt: skip
    exported = entry_points(source.decode())
    print(f"{len(exported)} entry points: {', '.join(exported)}")
    if not loops or missing:
        print(f"not vectorized: {missing or 'no marked loop'}", file=sys.stderr)
        return 1
    if len(exported) > MAX_ENTRY_POINTS:
        print(f"more than {MAX_ENTRY_POINTS} entry points: {exported}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
