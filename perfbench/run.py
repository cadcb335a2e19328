"""Mapping benchmark for voxeland, run from the root of a source checkout.

    python3 perfbench/run.py --workload orbit-vga --seed 1 --seconds 30 --trace 0

Prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones, and
the spans are written to ``perfbench/out/traces/``.  Each result is also
kept in ``perfbench/out/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# One BLAS/OpenMP thread in this process and the synthesis process it starts:
# the matmuls in mapping gain nothing from a second thread but keep a second
# CPU busy, which makes timings depend on what else runs on the machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="voxeland mapping benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "voxeland" / "__init__.py").is_file():
        print(f"error: no voxeland sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # Set before numpy is first imported, which reads them once.
    os.environ.update(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    from bench import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
