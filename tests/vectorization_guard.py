"""Every loop of ``pic_kernels.c`` marked ``VECTORIZED`` is vectorized by
GCC, and the file has at most ten entry points.

``python -m tests.vectorization_guard`` compiles the C file with
``repro.native.FLAGS`` plus ``-fopt-info-vec-optimized`` and prints one
line per marker: the marker's text, the line of the ``for`` that follows
it, and whether GCC reported that loop vectorized.  It exits 1 when one
is not, so an edit that silently drops a loop back to scalar code fails
here rather than in the next benchmark.  Loops are found by their marker
comment, not by line number.  It also exits 1 when the file defines more
than :data:`MAX_ENTRY_POINTS` functions that are not ``static``: a fused
pass replaces its parts rather than joining them.  GCC only: another
compiler reports vectorization in its own words (exit 2).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.native import FLAGS, SOURCE

__all__ = ["marked_loops", "entry_points", "vectorized_lines", "is_gcc", "main"]

MARKER = "VECTORIZED:"
#: the most functions pic_kernels.c may export
MAX_ENTRY_POINTS = 10


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


def vectorized_lines(cc: str, source: bytes) -> set[int]:
    """Lines GCC reports as the start of a vectorized loop."""
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run(
            [cc, *FLAGS, "-fopt-info-vec-optimized", "-x", "c", "-", "-o",
             str(Path(scratch) / "k.so"), "-lm"],
            input=source, capture_output=True, check=True, timeout=120,
        )  # fmt: skip
    report = done.stderr.decode(errors="replace")
    found = re.findall(r"^<stdin>:(\d+):\d+: optimized: loop vectorized", report, re.M)
    return {int(line) for line in found}


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
    done = vectorized_lines(cc, source)
    for name, line in loops.items():
        print(f"{'vectorized' if line in done else 'SCALAR':<11} line {line:<4} {name}")
    missing = [name for name, line in loops.items() if line not in done]
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
