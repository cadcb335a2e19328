"""Dataset decoding: frame manifests, depth images, prediction masks, ground truth.

On-disk layout of a dataset directory:

* ``manifest.jsonl`` -- one JSON object per frame with keys ``frame_id``,
  ``depth`` (relative path to a 16-bit PGM), ``predictions`` (relative path
  to a JSON file), ``pose`` (camera-to-world rotation, row-major 9 floats,
  plus translation) and ``intrinsics``.  An optional ``rgb`` key may point
  at a binary PPM used only for archiving disambiguation views.
* ``predictions/<frame>.json`` -- ``{"instances": [{"category", "confidence",
  "rle"}]}`` with uncompressed run-length masks (runs alternate starting with
  the zero run, filling the image row-major).
* ``ground_truth.json`` -- pre-voxelized instances at map resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """A dataset file is missing or malformed."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    depth_scale: float

    def __post_init__(self) -> None:
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if self.depth_scale <= 0:
            raise ValueError("depth_scale must be positive")


@dataclass(frozen=True)
class Pose:
    """Camera-to-world rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        translation = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if abs(float(np.linalg.det(rotation)) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")

    def apply(self, points_cam: np.ndarray) -> np.ndarray:
        points_cam = np.asarray(points_cam, dtype=float)
        return points_cam @ self.rotation.T + self.translation


@dataclass
class DepthImage:
    width: int
    height: int
    values: np.ndarray  # uint16, shape (height, width); 0 = invalid

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.uint16)
        if self.values.shape != (self.height, self.width):
            raise ValueError("depth value count does not match width*height")


@dataclass
class PredictionInstance:
    category: str
    confidence: float
    rle: list[int]

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")

    def mask(self, width: int, height: int) -> np.ndarray:
        return decode_rle_mask(self.rle, width, height)


@dataclass
class GroundTruthInstance:
    id: str
    category: str
    voxels: set[tuple[int, int, int]]


@dataclass
class GroundTruthScene:
    voxel_size: float
    instances: list[GroundTruthInstance]


@dataclass
class FrameRecord:
    frame_id: int
    depth_path: Path
    predictions_path: Path
    pose: Pose
    intrinsics: CameraIntrinsics
    rgb_path: Path | None = None


@dataclass
class Frame:
    """One fully decoded frame."""

    record: FrameRecord
    depth: DepthImage
    predictions: list[PredictionInstance] = field(default_factory=list)

    @property
    def frame_id(self) -> int:
        return self.record.frame_id


def decode_rle_mask(runs: list[int], width: int, height: int) -> np.ndarray:
    """Expand an uncompressed RLE into a boolean row-major (height, width) mask.

    Runs alternate value starting with the zero run; a leading 0 encodes a
    mask that starts with ones.
    """
    runs = list(runs)
    if any(r < 0 for r in runs):
        raise DatasetError(f"negative run length in {runs!r}")
    total = sum(runs)
    if total != width * height:
        raise DatasetError(
            f"run lengths sum to {total}, expected {width * height} for {width}x{height}"
        )
    values = np.zeros(len(runs), dtype=bool)
    values[1::2] = True
    flat = np.repeat(values, runs)
    return flat.reshape(height, width)


def encode_rle_mask(mask: np.ndarray) -> list[int]:
    """Inverse of :func:`decode_rle_mask` for a boolean mask."""
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size == 0:
        return []
    boundaries = np.flatnonzero(np.diff(flat)) + 1
    edges = np.concatenate(([0], boundaries, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return [int(r) for r in runs]


def backproject_pixels(
    us: np.ndarray,
    vs: np.ndarray,
    depth_raw: np.ndarray,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    max_range: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized back-projection.

    Returns ``(points, keep)`` where ``keep`` marks the input pixels that
    carried a valid in-range depth and ``points`` are their world-frame
    coordinates, in input order.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    depth_raw = np.asarray(depth_raw)
    z = depth_raw.astype(float) * intrinsics.depth_scale
    keep = (depth_raw != 0) & (z <= max_range)
    z = z[keep]
    x = (us[keep] - intrinsics.cx) * z / intrinsics.fx
    y = (vs[keep] - intrinsics.cy) * z / intrinsics.fy
    points_cam = np.stack([x, y, z], axis=1)
    return pose.apply(points_cam), keep


def _read_netpbm_header(data: bytes, magic: bytes, path: Path | str) -> tuple[int, int, int, int]:
    """Parse a netpbm header; returns (width, height, maxval, raster offset)."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        # skip whitespace and '#' comment lines
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start < pos:
            tokens.append(data[start:pos])
    if len(tokens) < 4 or tokens[0] != magic:
        raise DatasetError(f"{path}: not a binary {magic.decode()} netpbm file")
    # exactly one whitespace byte separates the maxval from the raster
    return int(tokens[1]), int(tokens[2]), int(tokens[3]), pos + 1


def read_pgm(path: Path | str) -> DepthImage:
    """Read a binary 16-bit PGM (P5, maxval 65535, big-endian samples)."""
    data = Path(path).read_bytes()
    width, height, maxval, offset = _read_netpbm_header(data, b"P5", path)
    if maxval != 65535:
        raise DatasetError(f"{path}: expected 16-bit maxval 65535, got {maxval}")
    expected = width * height * 2
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise DatasetError(f"{path}: truncated raster")
    values = np.frombuffer(raster, dtype=">u2").astype(np.uint16).reshape(height, width)
    return DepthImage(width=width, height=height, values=values)


def write_pgm(path: Path | str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.uint16)
    height, width = values.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + values.astype(">u2").tobytes())


def read_ppm(path: Path | str) -> np.ndarray:
    """Read a binary 8-bit PPM (P6) into an (h, w, 3) uint8 array."""
    data = Path(path).read_bytes()
    width, height, maxval, offset = _read_netpbm_header(data, b"P6", path)
    if maxval != 255:
        raise DatasetError(f"{path}: expected 8-bit maxval 255, got {maxval}")
    expected = width * height * 3
    raster = data[offset : offset + expected]
    if len(raster) != expected:
        raise DatasetError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path: Path | str, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.uint8)
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def _parse_pose(obj: dict) -> Pose:
    rotation = np.array(obj["rotation"], dtype=float).reshape(3, 3)
    translation = np.array(obj["translation"], dtype=float)
    return Pose(rotation=rotation, translation=translation)


def _parse_intrinsics(obj: dict) -> CameraIntrinsics:
    return CameraIntrinsics(
        fx=float(obj["fx"]),
        fy=float(obj["fy"]),
        cx=float(obj["cx"]),
        cy=float(obj["cy"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
        depth_scale=float(obj["depth_scale"]),
    )


def load_manifest(path: Path | str) -> list[FrameRecord]:
    """Parse a JSON-lines manifest, preserving frame order.

    Malformed lines and invalid poses/intrinsics raise :class:`DatasetError`
    carrying the 1-based line number.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"manifest not found: {path}")
    root = path.parent
    records: list[FrameRecord] = []
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = FrameRecord(
                    frame_id=int(obj["frame_id"]),
                    depth_path=root / obj["depth"],
                    predictions_path=root / obj["predictions"],
                    pose=_parse_pose(obj["pose"]),
                    intrinsics=_parse_intrinsics(obj["intrinsics"]),
                    rgb_path=(root / obj["rgb"]) if obj.get("rgb") else None,
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            records.append(record)
    return records


def load_predictions(path: Path | str) -> list[PredictionInstance]:
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"predictions file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        return [
            PredictionInstance(
                category=str(inst["category"]),
                confidence=float(inst["confidence"]),
                rle=[int(r) for r in inst["rle"]],
            )
            for inst in obj["instances"]
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def load_frame(record: FrameRecord) -> Frame:
    depth = read_pgm(record.depth_path)
    if (depth.width, depth.height) != (record.intrinsics.width, record.intrinsics.height):
        raise DatasetError(
            f"frame {record.frame_id}: depth size {depth.width}x{depth.height} does not "
            f"match intrinsics {record.intrinsics.width}x{record.intrinsics.height}"
        )
    return Frame(record=record, depth=depth, predictions=load_predictions(record.predictions_path))


def load_ground_truth(path: Path | str) -> GroundTruthScene:
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"ground truth file not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        voxel_size = float(obj["voxel_size"])
        instances = []
        seen: set[str] = set()
        for inst in obj["instances"]:
            gt_id = str(inst["id"])
            if gt_id in seen:
                raise ValueError(f"duplicate ground-truth instance id {gt_id!r}")
            seen.add(gt_id)
            voxels = {(int(i), int(j), int(k)) for i, j, k in inst["voxels"]}
            if not voxels:
                raise ValueError(f"ground-truth instance {gt_id!r} has no voxels")
            instances.append(
                GroundTruthInstance(id=gt_id, category=str(inst["category"]), voxels=voxels)
            )
        return GroundTruthScene(voxel_size=voxel_size, instances=instances)
    except (KeyError, ValueError, TypeError) as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def save_ground_truth(path: Path | str, scene: GroundTruthScene) -> None:
    obj = {
        "voxel_size": scene.voxel_size,
        "instances": [
            {
                "id": inst.id,
                "category": inst.category,
                "voxels": sorted([list(v) for v in inst.voxels]),
            }
            for inst in scene.instances
        ],
    }
    Path(path).write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


def crop_bbox(image: np.ndarray, bbox: tuple[int, int, int, int]) -> np.ndarray:
    """Crop (u_min, v_min, u_max, v_max), bounds inclusive, clipped to the image."""
    u_min, v_min, u_max, v_max = bbox
    height, width = image.shape[:2]
    u_min = max(0, min(u_min, width - 1))
    u_max = max(0, min(u_max, width - 1))
    v_min = max(0, min(v_min, height - 1))
    v_max = max(0, min(v_max, height - 1))
    if u_max < u_min or v_max < v_min:
        raise ValueError(f"empty crop {bbox!r}")
    return image[v_min : v_max + 1, u_min : u_max + 1]
