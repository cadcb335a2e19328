"""Full mapping loop over a synthetic room: synth -> per-frame fusion -> map.

Generates a small box scene with an orbiting camera, feeds every frame
through the pipeline, then prints the instance registry, the per-stage
timings, and the evaluation against ground truth.
"""

import tempfile
from pathlib import Path

from voxeland.evaluation import EvalConfig, evaluate
from voxeland.frames import load_frame, load_ground_truth, load_manifest
from voxeland.fusion import AssociationConfig, Pipeline
from voxeland.opinions import ClusteringParams
from voxeland.synthetic import generate_synthetic, scene_from_spec
from voxeland.uncertainty import declare_categories
from voxeland.voxelmap import MapState

SPEC = {
    "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
    "voxel_size": 0.02,
    "intrinsics": {
        "fx": 260.0, "fy": 260.0, "cx": 160.0, "cy": 120.0,
        "width": 320, "height": 240, "depth_scale": 0.001,
    },
    "objects": [
        {"id": "o1", "category": "chair", "min": [0.36, 0.36, 0.0], "max": [0.66, 0.66, 0.5]},
        {"id": "o2", "category": "table", "min": [-0.76, 0.20, 0.0], "max": [-0.34, 0.50, 0.34]},
        {"id": "o3", "category": "screen", "min": [0.34, -0.60, 0.0], "max": [0.56, -0.50, 0.42]},
    ],
    "trajectory": {
        "orbit": {"center": [0, 0, 0], "radius": 1.9, "height": 1.1, "frames": 24, "target": [0, 0, 0.25]}
    },
}

with tempfile.TemporaryDirectory() as tmp:
    dataset = Path(tmp) / "dataset"
    generate_synthetic(scene_from_spec(SPEC), seed=5, out_dir=dataset)
    print(f"synthetic dataset written under {dataset}")

    state = MapState(voxel_size=0.02)
    pipeline = Pipeline(
        state,
        clustering=ClusteringParams(coarse_voxel=0.08, eps=0.144, min_pts=4),
        association=AssociationConfig(refine_every=30),
    )
    for record in load_manifest(dataset / "manifest.jsonl"):
        pipeline.process_frame(load_frame(record))
    declare_categories(state)

    print(f"\nmap: {len(state.cells)} voxels, {len(state.instances) - 1} object instances")
    voxel_counts = state.voxel_counts()
    for instance_id, record in sorted(state.instances.items()):
        if record.is_unknown:
            continue
        evidence = {k: round(v, 1) for k, v in record.category_evidence.items()}
        print(f"  instance {instance_id}: {voxel_counts[instance_id]} voxels, "
              f"evidence {evidence} -> {record.final_category}")

    print("\nper-stage timing:")
    report = pipeline.timer.report()
    for stage, entry in report["stages"].items():
        print(f"  {stage:<20} {entry['mean_ms']:8.1f} ms mean over {entry['runs']} runs")
    print(f"  frame rate: {report['frame_rate_hz']:.2f} Hz")

    gt = load_ground_truth(dataset / "ground_truth.json")
    result = evaluate(state, gt, EvalConfig())
    print(f"\nper-class AP: {result.per_class_ap}")
    print(f"mAP = {result.map_score:.3f}")
