"""Geometric and semantic uncertainty layers over a corrupted scene.

One object is deliberately mislabeled in a third of the frames; its category
evidence splits, its semantic entropy rises well above the clean objects,
and both layers are exported as heat-colored PLY point clouds.
"""

import tempfile
from pathlib import Path

from voxeland.export import export_entropy_layer
from voxeland.frames import load_frame, load_manifest
from voxeland.fusion import Pipeline
from voxeland.opinions import ClusteringParams
from voxeland.synthetic import generate_synthetic, scene_from_spec
from voxeland.uncertainty import (
    declare_categories,
    geometric_entropy_map,
    semantic_entropy_map,
)
from voxeland.voxelmap import MapState

SPEC = {
    "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
    "voxel_size": 0.02,
    "intrinsics": {
        "fx": 260.0, "fy": 260.0, "cx": 160.0, "cy": 120.0,
        "width": 320, "height": 240, "depth_scale": 0.001,
    },
    "objects": [
        {"id": "good", "category": "table", "min": [-0.76, 0.20, 0.0], "max": [-0.34, 0.50, 0.34]},
        {"id": "shaky", "category": "chair", "min": [0.36, 0.36, 0.0], "max": [0.66, 0.66, 0.5]},
    ],
    "trajectory": {
        "orbit": {"center": [0, 0, 0], "radius": 1.9, "height": 1.1, "frames": 24, "target": [0, 0, 0.25]}
    },
    "noise": {
        "misclassification_rate": 0.34,
        "mislabel_target": "shaky",
        "mislabel_as": "stool",
        "confidence": 0.5,
        "mislabel_confidence": 0.9,
    },
}

with tempfile.TemporaryDirectory() as tmp:
    dataset = Path(tmp) / "dataset"
    generate_synthetic(scene_from_spec(SPEC), seed=2, out_dir=dataset)

    state = MapState(voxel_size=0.02)
    pipeline = Pipeline(state, clustering=ClusteringParams(0.08, 0.144, 4))
    for record in load_manifest(dataset / "manifest.jsonl"):
        pipeline.process_frame(load_frame(record))

    print("instance category evidence after 24 frames:")
    decisions = declare_categories(state, entropy_threshold=0.5)
    for decision in decisions:
        record = state.instances[decision.instance_id]
        evidence = {k: round(v, 2) for k, v in record.category_evidence.items()}
        status = "FLAGGED for disambiguation" if decision.flagged else f"declared {decision.final_category}"
        entropy = "n/a" if decision.entropy is None else f"{decision.entropy:.3f}"
        print(f"  instance {decision.instance_id}: {evidence}  entropy={entropy}  -> {status}")

    geometric = geometric_entropy_map(state)
    semantic = semantic_entropy_map(state)
    print(f"\ngeometric layer: {len(geometric.values.entropies)} voxels, "
          f"max {max(geometric.values.values()):.3f} nats")
    print(f"semantic layer:  {len(semantic.values.entropies)} voxels, "
          f"max {max(semantic.values.values()):.3f} nats")

    out = Path(tmp) / "layers"
    out.mkdir()
    export_entropy_layer(state, geometric, out / "geom_entropy.ply")
    export_entropy_layer(state, semantic, out / "sem_entropy.ply")
    print(f"\nheat-colored PLY layers written under {out} (blue = low, red = high)")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}: {path.stat().st_size} bytes")
