"""Generate one workload's dataset; the benchmark runs this in its own process.

    python3 perfbench/synth.py --workload NAME --frames N --seed N --out DIR [--trace-out FILE]

With ``--trace-out`` the synthetic layer's spans are written there as JSON lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from voxeland import synthetic

    from tracing import Tracer
    from workloads import WORKLOADS, build_scene

    tracer = Tracer()
    if args.trace_out:
        tracer.wrap(synthetic, "generate_synthetic", "synthetic.generate_synthetic")
        tracer.wrap(synthetic, "render_frame", "synthetic.render_frame")
        tracer.wrap(synthetic, "ground_truth_scene", "synthetic.ground_truth_scene")
    try:
        workload = dataclasses.replace(WORKLOADS[args.workload], frames=args.frames)
        scene = build_scene(workload, args.seed)
        synthetic.generate_synthetic(scene, seed=args.seed, out_dir=Path(args.out))
    finally:
        tracer.uninstall()
    if args.trace_out:
        tracer.write_jsonl(Path(args.trace_out), "synth")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
