"""Workload definitions: each one is a synthetic scene, a pipeline config and a loop plan.

Every scene is built from the workload's seed alone, so the same seed gives
the same dataset byte for byte.  On orbit-vga, which has no noise, the seed
moves the camera's starting angle on the orbit; on the other two it drives
the noise draws inside ``generate_synthetic`` and the views stay fixed.  The
seed never changes the objects, the frame count or the loop plan.  Drawn
per seed, the clutter layout and angle changed how many instances form and
merge: over five seeds the snapshot size spread by 7% and map_hz by 27%
(interquartile range over median), against 0.2% and 7% with both fixed.
On query-qvga the 75th-percentile frame is the query after frame 3, whose
cost follows the map built from the first three views, so a per-seed angle
spread frame_ms_tail by 33% over ten seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from voxeland.frames import CameraIntrinsics
from voxeland.synthetic import NoiseSpec, SceneObject, SyntheticScene, look_at_pose

ROOM_MIN = (-3.0, -3.0, 0.0)
ROOM_MAX = (3.0, 3.0, 2.4)

# The acceptance suite's five-box scene.
FIVE_BOXES = (
    ("o1", "chair", (0.36, 0.36, 0.0), (0.66, 0.66, 0.5)),
    ("o2", "table", (-0.76, 0.20, 0.0), (-0.34, 0.50, 0.34)),
    ("o3", "chair", (-0.50, -0.76, 0.0), (-0.20, -0.46, 0.5)),
    ("o4", "screen", (0.34, -0.60, 0.0), (0.56, -0.50, 0.42)),
    ("o5", "table", (-0.18, -0.08, 0.0), (0.20, 0.18, 0.26)),
)

# A run maps whole rounds until it has at least MIN_FRAMES frames;
# frame_ms_tail is the highest percentile that has TAIL_FRAMES frames beyond it.
MIN_FRAMES = 40
TAIL_FRAMES = 10
TAIL_PERCENTILE = 100.0 * (MIN_FRAMES - TAIL_FRAMES) / MIN_FRAMES
# Each round's saved map is loaded and finalized this many times, so that
# load_s and finalize_s, calls of about a second or less, are medians of two
# samples per round rather than one.
ROUND_TRIPS = 2

CLUTTER_CATEGORIES = ("chair", "table", "screen", "lamp", "crate", "plant")
CLUTTER_BOXES = 48
CLUTTER_LAYOUT_SEED = 20241113


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int  # distinct frames in the dataset; one round maps all of them
    config: dict = field(default_factory=dict)  # PipelineConfig overrides
    # After every Nth frame of a round: declare, both entropy layers and a snapshot checkpoint.
    query_every: int = 0
    noiseless: bool = False  # mAP must be exactly 1.0 and nothing may be flagged


WORKLOADS = {
    "orbit-vga": Workload(
        name="orbit-vga",
        frames=10,
        config={"refine_every": 10},
        noiseless=True,
    ),
    "clutter-qvga": Workload(
        name="clutter-qvga",
        frames=8,
        config={"refine_every": 8, "max_range": 3.0},
    ),
    "query-qvga": Workload(
        name="query-qvga",
        frames=10,
        config={"refine_every": 10, "max_range": 3.0},
        query_every=3,
    ),
}


def _orbit(
    frames: int, start: float, radius: float, height: float, target: tuple[float, float, float]
) -> list:
    """Evenly spaced poses on a full circle, from angle ``start``, all looking at ``target``."""
    poses = []
    for k in range(frames):
        angle = start + 2.0 * math.pi * k / frames
        eye = np.array([radius * math.cos(angle), radius * math.sin(angle), height])
        poses.append(look_at_pose(eye, np.asarray(target, dtype=float)))
    return poses


def _five_boxes() -> list[SceneObject]:
    return [SceneObject(i, c, np.array(lo), np.array(hi)) for i, c, lo, hi in FIVE_BOXES]


def _clutter() -> list[SceneObject]:
    """CLUTTER_BOXES boxes, one per chosen cell of an 8x8 grid, so boxes never touch."""
    rng = np.random.default_rng(CLUTTER_LAYOUT_SEED)
    cell = 0.4
    chosen = rng.choice(64, size=CLUTTER_BOXES, replace=False)
    objects = []
    for n, index in enumerate(sorted(int(c) for c in chosen)):
        x0 = -1.6 + cell * (index % 8)
        y0 = -1.6 + cell * (index // 8)
        sx, sy = rng.uniform(0.14, 0.30, size=2)
        sz = rng.uniform(0.12, 0.6)
        ox = x0 + 0.05 + rng.uniform(0.0, cell - 0.1 - sx)
        oy = y0 + 0.05 + rng.uniform(0.0, cell - 0.1 - sy)
        category = CLUTTER_CATEGORIES[int(rng.integers(len(CLUTTER_CATEGORIES)))]
        objects.append(
            SceneObject(f"c{n:02d}", category, np.array([ox, oy, 0.0]), np.array([ox + sx, oy + sy, sz]))
        )
    return objects


def build_scene(workload: Workload, seed: int) -> SyntheticScene:
    """The workload's scene for this seed; ``generate_synthetic`` draws its noise from the same seed."""
    if workload.name == "orbit-vga":
        intrinsics = CameraIntrinsics(520.0, 520.0, 320.0, 240.0, 640, 480, 0.001)
        objects = _five_boxes()
        start = float(np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * math.pi))
        trajectory = _orbit(workload.frames, start, 1.9, 1.1, (0.0, 0.0, 0.25))
        noise = NoiseSpec()
    elif workload.name == "clutter-qvga":
        intrinsics = CameraIntrinsics(260.0, 260.0, 160.0, 120.0, 320, 240, 0.001)
        objects = _clutter()
        trajectory = _orbit(workload.frames, 0.0, 2.5, 1.5, (0.0, 0.0, 0.2))
        noise = NoiseSpec(
            mask_dilation_px=2,
            depth_sigma=0.004,
            misclassification_rate=0.15,
            confidence=0.9,
            mislabel_confidence=0.7,
        )
    elif workload.name == "query-qvga":
        intrinsics = CameraIntrinsics(260.0, 260.0, 160.0, 120.0, 320, 240, 0.001)
        objects = _five_boxes()
        trajectory = _orbit(workload.frames, 0.0, 1.9, 1.1, (0.0, 0.0, 0.25))
        noise = NoiseSpec(misclassification_rate=0.1, confidence=0.9, mislabel_confidence=0.6)
    else:
        raise KeyError(workload.name)
    return SyntheticScene(
        room_min=np.array(ROOM_MIN),
        room_max=np.array(ROOM_MAX),
        objects=objects,
        trajectory=trajectory,
        intrinsics=intrinsics,
        voxel_size=0.02,
        noise=noise,
    )
