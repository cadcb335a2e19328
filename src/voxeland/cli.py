"""Command-line driver: synth / build / eval / disambiguate / export.

Each command imports its modules when it runs, so ``synth`` and ``--help`` load no scipy.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .voxelmap import MapState

# Each layer's `export --layer` name with the file `build` writes it to, in this order.
LAYERS = {
    "geom-entropy": "geom_entropy.ply",
    "sem-entropy": "sem_entropy.ply",
    "instances": "instances.ply",
    "semantics": "semantics.ply",
}


def _write_layer(layer: str, state: MapState, path: Path | str) -> None:
    """Export the map layer named ``layer`` to ``path``."""
    from . import export, uncertainty
    if layer == "geom-entropy":
        export.export_entropy_layer(state, uncertainty.geometric_entropy_map(state), path)
    elif layer == "sem-entropy":
        export.export_entropy_layer(state, uncertainty.semantic_entropy_map(state), path)
    elif layer == "instances":
        export.export_instance_map(state, path)
    else:
        export.export_semantic_map(state, path)


def _load_config(path: str | None) -> PipelineConfig:
    from .config import PipelineConfig
    return PipelineConfig.from_file(path) if path else PipelineConfig()


def _cmd_build(args: argparse.Namespace) -> int:
    from . import atomic, frames, fusion, uncertainty, voxelmap
    dataset = Path(args.dataset)
    out_dir = Path(args.out)
    with _removed_on_failure(out_dir):
        config = _load_config(args.config)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = frames.load_manifest(dataset / "manifest.jsonl")
        state = voxelmap.MapState(voxel_size=config.voxel_size, occupancy=config.occupancy_params())
        pipeline = fusion.Pipeline(
            state,
            clustering=config.clustering_params(),
            association=config.association_config(),
            max_range=config.max_range,
            carve=config.carve_free_space,
            carve_stride=config.carve_stride,
            view_store=(out_dir / "views") if config.archive_views else None,
        )
        for record in records:
            pipeline.process_frame(frames.load_frame(record))
        uncertainty.declare_categories(state, config.entropy_threshold)
        state.save_snapshot(out_dir / "map.vxl")
        for layer, file_name in LAYERS.items():
            _write_layer(layer, state, out_dir / file_name)
        timing = pipeline.timer.report()
        with atomic.atomic_write(out_dir / "timing.json") as handle:
            handle.write(json.dumps(timing, sort_keys=True))
    for stage, entry in timing["stages"].items():
        summary = ", ".join(f"{name} {entry[name + '_ms']:.2f}" for name in ("mean", "p50", "p95", "max"))
        print(f"{stage}: {summary} ms over {entry['runs']} runs")
    print(f"Frame-rate: {timing['frame_rate_hz']:.2f} Hz over {timing['frames']} frames")
    return 0


@contextmanager
def _removed_on_failure(out_dir: Path) -> Iterator[None]:
    """Remove ``out_dir`` when the block raises anything, if the block created it."""
    created = not out_dir.exists()
    try:
        yield
    except BaseException:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise


def _cmd_eval(args: argparse.Namespace) -> int:
    from . import atomic, evaluation, frames, voxelmap
    config = _load_config(args.config)
    state = voxelmap.MapState.load_snapshot(args.snapshot)
    gt = frames.load_ground_truth(args.gt)
    eval_config = evaluation.EvalConfig(iou_threshold=config.iou_threshold, classes=config.eval_classes)
    timing = None
    timing_path = Path(args.snapshot).parent / "timing.json"
    if timing_path.is_file():
        with atomic.reading(timing_path):
            timing = atomic._checked(json.loads(timing_path.read_text(encoding="utf-8")), "timing", dict)
    try:
        report = evaluation.evaluate(state, gt, eval_config, timing=timing)
    except ValueError as exc:
        raise ValueError(f"{args.gt} against {args.snapshot}: {exc}") from exc
    report.save(args.out)
    for category in sorted(report.per_class_ap):
        print(f"AP[{category}] = {report.per_class_ap[category]:.4f}")
    print(f"mAP = {report.map_score:.4f}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synthetic
    out_dir = Path(args.out)
    with _removed_on_failure(out_dir):
        scene = synthetic.load_scene_spec(args.spec)
        synthetic.generate_synthetic(scene, seed=args.seed, out_dir=out_dir)
    print(f"dataset written to {out_dir}")
    return 0


def _cmd_disambiguate(args: argparse.Namespace) -> int:
    from . import disambiguation, voxelmap
    config = _load_config(args.config)
    state = voxelmap.MapState.load_snapshot(args.snapshot)
    if args.client == "http":
        if not config.endpoint:
            raise ValueError("http client requires 'endpoint' in the config file")
        client = disambiguation.HttpClient(
            config.endpoint, api_key_env=config.api_key_env, model=config.model, timeout_s=config.timeout_s
        )
    elif args.fixtures:
        client = disambiguation.MockClient.from_fixture_file(args.fixtures)
    else:
        client = disambiguation.ArgmaxClient()
    report = disambiguation.disambiguate_all(
        state, client, min_prob=config.min_prob, views_per_candidate=config.views_per_candidate
    )
    out = args.out or args.snapshot
    state.save_snapshot(out)
    summary = {
        "decisions": [
            {"instance_id": d.instance_id, "chosen_category": d.chosen_category}
            for d in report.decisions
        ],
        "parse_failures": [list(item) for item in report.parse_failures],
        "client_failures": [list(item) for item in report.client_failures],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from . import voxelmap
    state = voxelmap.MapState.load_snapshot(args.snapshot)
    _write_layer(args.layer, state, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxeland", description="Instance-aware semantic voxel mapping"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="map a dataset into a snapshot + layer exports")
    p_build.add_argument("--dataset", required=True)
    p_build.add_argument("--config", default=None)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_eval = sub.add_parser("eval", help="evaluate a snapshot against ground truth")
    p_eval.add_argument("--snapshot", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--config", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    p_dis = sub.add_parser("disambiguate", help="resolve flagged instances via a client")
    p_dis.add_argument("--snapshot", required=True)
    p_dis.add_argument("--client", choices=["mock", "http"], required=True)
    p_dis.add_argument("--fixtures", default=None)
    p_dis.add_argument("--config", default=None)
    p_dis.add_argument("--out", default=None)
    p_dis.set_defaults(func=_cmd_disambiguate)

    p_export = sub.add_parser("export", help="export a snapshot layer as PLY")
    p_export.add_argument("--snapshot", required=True)
    p_export.add_argument("--layer", choices=list(LAYERS), required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; a dataset, file or value error is one ``error:`` line on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a DatasetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
