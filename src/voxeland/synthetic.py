"""Synthetic desk-scale scene generation in the on-disk dataset format.

Scenes are axis-aligned boxes inside a room; depth is rendered per pose by
ray/box intersection with z-buffering (the room's interior walls provide
background depth), and each visible object yields a run-length mask plus a
category/confidence prediction, optionally corrupted by the noise spec.
Each box is slab-tested only against the rays of its window: the bounding
pixel rectangle of its projected corners, widened by one pixel and clipped
to the image, or the whole image when a corner is not in front of the
camera.  A mask is dilated only over its bounding rectangle padded by the
dilation radius.  Both give the bits of the full-image computation.
Ground truth stores the surface-shell voxelization of every box at map
resolution, which is what a depth-based reconstruction can actually observe.
Everything is deterministic given the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .atomic import _checked, _number, _numbers, reading
from .frames import (
    CameraIntrinsics,
    GroundTruthInstance,
    GroundTruthScene,
    Pose,
    _parse_intrinsics,
    _parse_pose,
    encode_rle_mask,
    save_ground_truth,
    write_pgm,
)
from .voxelmap import pack_keys


@dataclass
class SceneObject:
    instance_id: str
    category: str
    box_min: np.ndarray
    box_max: np.ndarray

    def __post_init__(self) -> None:
        self.box_min = np.asarray(self.box_min, dtype=float)
        self.box_max = np.asarray(self.box_max, dtype=float)
        if not np.all(self.box_max > self.box_min):
            raise ValueError(f"degenerate box for {self.instance_id}")


@dataclass
class NoiseSpec:
    mask_dilation_px: int = 0
    depth_sigma: float = 0.0
    misclassification_rate: float = 0.0
    # Targeted corruption: with the given rate, predictions of this instance
    # are relabeled to mislabel_as at mislabel_confidence.
    mislabel_target: str | None = None
    mislabel_as: str | None = None
    confidence: float = 0.9
    mislabel_confidence: float = 0.9

    def __post_init__(self) -> None:
        """Refuse values that the dataset could not carry: a confidence that
        ``load_frame`` rejects, or a negative size or rate that would be
        silently ignored or saturate."""
        pixels = self.mask_dilation_px
        if isinstance(pixels, bool) or not isinstance(pixels, (int, np.integer)) or pixels < 0:
            raise ValueError(f"mask_dilation_px must be a non-negative int, got {pixels!r}")
        if not (math.isfinite(self.depth_sigma) and self.depth_sigma >= 0):
            raise ValueError(f"depth_sigma must be finite and >= 0, got {self.depth_sigma!r}")
        if not 0 <= self.misclassification_rate <= 1:
            raise ValueError(
                f"misclassification_rate must be in [0, 1], got {self.misclassification_rate!r}"
            )
        for name in ("confidence", "mislabel_confidence"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value!r}")


@dataclass
class SyntheticScene:
    room_min: np.ndarray
    room_max: np.ndarray
    objects: list[SceneObject]
    trajectory: list[Pose]
    intrinsics: CameraIntrinsics
    voxel_size: float = 0.02
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self) -> None:
        self.room_min = np.asarray(self.room_min, dtype=float)
        self.room_max = np.asarray(self.room_max, dtype=float)
        if not (math.isfinite(self.voxel_size) and self.voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {self.voxel_size!r}")
        if not self.trajectory:
            raise ValueError("trajectory must contain at least one pose")
        for scene_object in self.objects:
            box_min, box_max = scene_object.box_min, scene_object.box_max
            if not (np.all(box_min >= self.room_min) and np.all(box_max <= self.room_max)):
                raise ValueError(f"object {scene_object.instance_id} outside room bounds")

    @property
    def categories(self) -> list[str]:
        """Object categories in order of first appearance."""
        return list(dict.fromkeys(scene_object.category for scene_object in self.objects))


def look_at_pose(eye: np.ndarray, target: np.ndarray, up: np.ndarray = (0.0, 0.0, 1.0)) -> Pose:
    """Camera-to-world pose looking from eye toward target, image v axis down."""
    eye = np.asarray(eye, dtype=float)
    forward = np.asarray(target, dtype=float) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.asarray(up, dtype=float)
    right = np.cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-9:  # looking straight along up; pick an arbitrary right
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
        norm = np.linalg.norm(right)
    right = right / norm
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=1)
    return Pose(rotation=rotation, translation=eye)


def orbit_trajectory(
    center: np.ndarray,
    radius: float,
    height: float,
    frames: int,
    target: np.ndarray | None = None,
) -> list[Pose]:
    """Poses on a circle around center at the given height, all looking inward."""
    center = np.asarray(center, dtype=float)
    target = center if target is None else np.asarray(target, dtype=float)
    poses = []
    for k in range(frames):
        angle = 2.0 * math.pi * k / frames
        eye = center + np.array([radius * math.cos(angle), radius * math.sin(angle), 0.0])
        eye[2] = height
        poses.append(look_at_pose(eye, target))
    return poses


def _pixel_rays(intrinsics: CameraIntrinsics, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """World-frame ray directions per pixel, parameterized by camera depth.

    Directions are the rotated camera rays ((u-cx)/fx, (v-cy)/fy, 1), so the
    ray parameter t equals z-depth in the camera frame.
    """
    grid_u, grid_v = np.meshgrid(
        np.arange(intrinsics.width, dtype=float), np.arange(intrinsics.height, dtype=float)
    )
    x = (grid_u - intrinsics.cx) / intrinsics.fx
    y = (grid_v - intrinsics.cy) / intrinsics.fy
    dirs_cam = np.stack([x, y, np.ones_like(grid_u)], axis=-1)
    return dirs_cam @ pose.rotation.T, pose.translation


def _slab(
    origin: np.ndarray, dirs: np.ndarray, box_min: np.ndarray, box_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Depths at which each ray enters and leaves the box's three slabs.

    A ray parallel to an axis gets infinite bounds on it, or NaN when it
    starts on one of the axis's faces; ``np.fmax`` and ``np.fmin`` skip a
    NaN, so that axis then bounds nothing.  The ray hits the box where
    ``t_near <= t_far``.
    """
    t_near = np.full(dirs.shape[:-1], np.nan)
    t_far = np.full(dirs.shape[:-1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for axis in range(3):
            inv = 1.0 / dirs[..., axis]
            t_low = (box_min[axis] - origin[axis]) * inv
            t_high = (box_max[axis] - origin[axis]) * inv
            t_near = np.fmax(t_near, np.minimum(t_low, t_high))
            t_far = np.fmin(t_far, np.maximum(t_low, t_high))
    return t_near, t_far


# each corner of a box picks, per axis, its high (True) or its low bound
_CORNERS = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=bool)


def _box_windows(scene: SyntheticScene, pose: Pose) -> list[tuple[slice, slice]]:
    """Rows and columns of the pixels whose rays can meet each box.

    A box wholly in front of the camera projects inside the hull of its
    projected corners; its window is that hull's bounding rectangle, widened
    by one pixel against rounding in the projection and the slab test, and
    clipped to the image.  It may be empty.  When a corner lies at or behind
    the camera plane the window is the whole image.
    """
    intrinsics = scene.intrinsics
    lows = np.array([o.box_min for o in scene.objects]).reshape(-1, 1, 3)
    highs = np.array([o.box_max for o in scene.objects]).reshape(-1, 1, 3)
    # (p - t) @ R is R^T (p - t): each corner in the camera frame
    camera = (np.where(_CORNERS, highs, lows) - pose.translation) @ pose.rotation
    x, y, z = np.moveaxis(camera, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = intrinsics.fx * x / z + intrinsics.cx
        v = intrinsics.fy * y / z + intrinsics.cy
    # clip before the integer cast: a corner just in front of the camera
    # projects arbitrarily far outside the image
    bounds = np.stack([
        np.clip(np.floor(v.min(axis=1)) - 1, 0, intrinsics.height),
        np.clip(np.ceil(v.max(axis=1)) + 2, 0, intrinsics.height),
        np.clip(np.floor(u.min(axis=1)) - 1, 0, intrinsics.width),
        np.clip(np.ceil(u.max(axis=1)) + 2, 0, intrinsics.width),
    ], axis=1)
    bounds[(z <= 1e-6).any(axis=1)] = [0, intrinsics.height, 0, intrinsics.width]
    return [
        (slice(row_start, row_stop), slice(col_start, col_stop))
        for row_start, row_stop, col_start, col_stop in bounds.astype(int).tolist()
    ]


def render_frame(
    scene: SyntheticScene, pose: Pose
) -> tuple[np.ndarray, np.ndarray]:
    """Render z-depth (meters) and per-pixel winning object index (-1 = room).

    Each box is tested only against the rays of its window (``_box_windows``);
    those rays get the same elementwise arithmetic as over the whole image.
    """
    dirs, origin = _pixel_rays(scene.intrinsics, pose)
    _, room_exit = _slab(origin, dirs, scene.room_min, scene.room_max)
    depth = np.where(room_exit > 1e-6, room_exit, np.inf)
    owner = np.full(depth.shape, -1, dtype=int)
    windows = _box_windows(scene, pose)
    for index, (scene_object, window) in enumerate(zip(scene.objects, windows)):
        window_depth, window_owner = depth[window], owner[window]
        if window_depth.size == 0:
            continue
        near, far = _slab(origin, dirs[window], scene_object.box_min, scene_object.box_max)
        closer = (near <= far) & (near > 1e-6) & (near < window_depth)
        window_depth[closer] = near[closer]
        window_owner[closer] = index
    return depth, owner


def voxelize_box_shell(
    box_min: np.ndarray, box_max: np.ndarray, voxel_size: float
) -> np.ndarray:
    """Sorted packed keys of the voxels overlapping the box surface (not its
    open interior).

    A key is included when its cube touches the closed box but is not
    strictly inside it, matching what surface observations can register:
    the keys spanning the box on each axis, minus the product of each
    axis's keys whose cube lies strictly inside the box on that axis.
    """
    spans, insides = [], []
    for low, high in zip(box_min, box_max):
        span = np.arange(math.floor(low / voxel_size), math.floor(high / voxel_size) + 1)
        cube_min = span * voxel_size
        spans.append(span)
        insides.append((cube_min > low) & (cube_min + voxel_size < high))
    # the grid is in (i, j, k) order, so its packed keys are sorted
    grid = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1)
    interior = np.logical_and.reduce(np.meshgrid(*insides, indexing="ij"))
    return pack_keys(grid[~interior])


def ground_truth_scene(scene: SyntheticScene) -> GroundTruthScene:
    instances = [
        GroundTruthInstance(
            id=scene_object.instance_id,
            category=scene_object.category,
            keys=voxelize_box_shell(scene_object.box_min, scene_object.box_max, scene.voxel_size),
        )
        for scene_object in scene.objects
    ]
    return GroundTruthScene(voxel_size=scene.voxel_size, instances=instances)


def _dilate_mask(mask: np.ndarray, pixels: int) -> None:
    """Set, in place, every pixel within Manhattan distance ``pixels`` of the
    mask: ``pixels`` rounds of OR with the four one-pixel shifts.

    Only the mask's bounding rectangle padded by ``pixels`` and clipped to
    the image is touched; every pixel in reach lies inside it.
    """
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    window = mask[
        max(rows[0] - pixels, 0) : rows[-1] + pixels + 1,
        max(cols[0] - pixels, 0) : cols[-1] + pixels + 1,
    ]
    for _ in range(pixels):
        grown = window.copy()
        grown[1:] |= window[:-1]
        grown[:-1] |= window[1:]
        grown[:, 1:] |= window[:, :-1]
        grown[:, :-1] |= window[:, 1:]
        window[...] = grown


def generate_synthetic(scene: SyntheticScene, seed: int, out_dir: Path | str) -> Path:
    """Write a full dataset directory; byte-identical for a fixed seed."""
    out_dir = Path(out_dir)
    (out_dir / "depth").mkdir(parents=True, exist_ok=True)
    (out_dir / "predictions").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    intrinsics = scene.intrinsics
    noise = scene.noise
    categories = scene.categories
    manifest_lines = []

    for frame_id, pose in enumerate(scene.trajectory):
        depth_m, owner = render_frame(scene, pose)
        if noise.depth_sigma > 0:
            jitter = rng.normal(0.0, noise.depth_sigma, depth_m.shape)
            depth_m = np.where(np.isfinite(depth_m), depth_m + jitter, depth_m)
        raw = np.where(
            np.isfinite(depth_m) & (depth_m > 0),
            np.clip(np.round(depth_m / intrinsics.depth_scale), 0, 65535),
            0,
        ).astype(np.uint16)
        depth_name = f"depth/{frame_id:05d}.pgm"
        write_pgm(out_dir / depth_name, raw)

        instances = []
        for index, scene_object in enumerate(scene.objects):
            mask = owner == index
            if not mask.any():
                continue
            if noise.mask_dilation_px > 0:
                _dilate_mask(mask, noise.mask_dilation_px)
            category = scene_object.category
            confidence = noise.confidence
            if (
                noise.mislabel_target == scene_object.instance_id
                and noise.mislabel_as is not None
                and rng.random() < noise.misclassification_rate
            ):
                category = noise.mislabel_as
                confidence = noise.mislabel_confidence
            elif noise.mislabel_target is None and noise.misclassification_rate > 0:
                if rng.random() < noise.misclassification_rate:
                    others = [c for c in categories if c != scene_object.category]
                    if others:
                        category = others[int(rng.integers(len(others)))]
                        confidence = noise.mislabel_confidence
            rle = encode_rle_mask(mask)
            instances.append({"category": category, "confidence": confidence, "rle": rle})
        predictions_name = f"predictions/{frame_id:05d}.json"
        (out_dir / predictions_name).write_text(
            json.dumps({"instances": instances}, sort_keys=True), encoding="utf-8"
        )

        manifest_lines.append(
            json.dumps(
                {
                    "frame_id": frame_id,
                    "depth": depth_name,
                    "predictions": predictions_name,
                    "pose": {
                        "rotation": pose.rotation.ravel().tolist(),
                        "translation": pose.translation.tolist(),
                    },
                    "intrinsics": asdict(intrinsics),
                },
                sort_keys=True,
            )
        )

    (out_dir / "manifest.jsonl").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    save_ground_truth(out_dir / "ground_truth.json", ground_truth_scene(scene))
    return out_dir


def scene_from_spec(obj: dict) -> SyntheticScene:
    """Build a scene from its JSON description.

    The trajectory is either an explicit pose list or an orbit shorthand
    ``{"orbit": {"center", "radius", "height", "frames", "target"?}}``.
    """
    intrinsics = _parse_intrinsics(obj["intrinsics"])
    trajectory_spec = obj["trajectory"]
    if isinstance(trajectory_spec, dict) and "orbit" in trajectory_spec:
        orbit = trajectory_spec["orbit"]
        target = orbit.get("target")
        # frames below 1 give no pose, which the scene refuses
        trajectory = orbit_trajectory(
            _numbers(orbit["center"], "center", 3),
            radius=_number(orbit["radius"], "radius"),
            height=_number(orbit["height"], "height"),
            frames=_checked(orbit["frames"], "frames", int),
            target=None if target is None else _numbers(target, "target", 3),
        )
    else:
        trajectory = [_parse_pose(p) for p in trajectory_spec]
    noise_spec = _checked(obj.get("noise", {}), "noise", dict)
    # float fields take a JSON int as a float; the rest stay as given, so a
    # fractional mask_dilation_px is refused, not truncated
    noise = NoiseSpec(**{
        f.name: _number(noise_spec[f.name], f.name) if isinstance(f.default, float) else noise_spec[f.name]
        for f in fields(NoiseSpec)
        if f.name in noise_spec
    })
    return SyntheticScene(
        room_min=_numbers(obj["room"]["min"], "room min", 3),
        room_max=_numbers(obj["room"]["max"], "room max", 3),
        objects=[
            SceneObject(
                instance_id=_checked(o["id"], "id", str),
                category=_checked(o["category"], "category", str),
                box_min=_numbers(o["min"], "min", 3),
                box_max=_numbers(o["max"], "max", 3),
            )
            for o in obj["objects"]
        ],
        trajectory=trajectory,
        intrinsics=intrinsics,
        voxel_size=_number(obj.get("voxel_size", 0.02), "voxel_size"),
        noise=noise,
    )


def load_scene_spec(path: Path | str) -> SyntheticScene:
    """Read a scene spec; a file that is not one is a ValueError naming it."""
    with reading(path):
        return scene_from_spec(json.loads(Path(path).read_text(encoding="utf-8")))
