"""``python3 benchmarks/e2e`` (or ``python -m benchmarks.e2e``): the one command.

Without a sub-command it makes one run of one workload and prints every
metric by name with its unit, then — as the last line — the result
object the benchmark driver reads::

    python -m benchmarks.e2e --workload fig17_dynamic --seed 3 --seconds 25 --trace 0

``run``, ``trace``, ``aa`` and ``report`` drive that same command in
fresh child processes and ``manifest`` writes ``BENCHMARK.json``; see
README.md.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Before anything imports NumPy: one BLAS/OpenMP thread, whatever the caller set.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Both import roots, so `python3 benchmarks/e2e` works from a bare checkout too.
_ROOT = Path(__file__).resolve().parents[2]
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402

from benchmarks.e2e.metrics import WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument(
        "command",
        nargs="?",
        default="measure",
        choices=("measure", "run", "trace", "aa", "report", "manifest", "coldstart"),
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3, help="the only input to workload generation")
    parser.add_argument("--seconds", type=float, default=None, help="nominal length of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None, help="also write the full result here")
    parser.add_argument("--sets", type=int, default=5, help="run/aa: runs of each workload")
    return parser


def _print_result(result: dict) -> None:
    """Every metric by name with its unit, then the driver's result line."""
    print(
        f"{result['workload']}  seed={result['seed']}  scale={result['scale']}  "
        f"traced={int(result['traced'])}  passes={result['passes']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>18.9g} {metric['unit']}")
    print(f"  ops_attempted={result['ops_attempted']}  ops_failed={result['ops_failed']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["ops_failed"] == 0,
                "attempted": result["ops_attempted"],
                "failed": result["ops_failed"],
                "metrics": result["metrics"],
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if importlib.util.find_spec("repro") is None:
        print(f"the program under test is not in this checkout: no {_ROOT / 'src' / 'repro'}",
              file=sys.stderr)  # fmt: skip
        return 2
    from benchmarks.e2e import protocol

    protocol.adopt_orphans()
    try:
        return _dispatch(args)
    finally:  # on every path out: nothing this process started outlives it
        protocol.stop_children()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "coldstart":
        from benchmarks.e2e.workloads import cold_start

        cold_start(args.workload, args.seed, args.scale)
        return 0
    if args.command == "measure":
        if args.workload is None:
            _parser().error("--workload is required for a single run")
        from benchmarks.e2e import layers, protocol

        seconds = args.seconds if args.seconds is not None else protocol.DEFAULT_SECONDS
        run = layers.measure_traced if args.trace else protocol.measure
        result = run(args.workload, args.seed, seconds, args.scale)
        if args.out is not None:
            protocol.write_json(args.out, result)
        _print_result(result)
        return 0
    from benchmarks.e2e import suite

    return suite.main(args)


if __name__ == "__main__":
    sys.exit(main())
