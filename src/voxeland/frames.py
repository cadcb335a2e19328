"""Dataset decoding: frame manifests, depth images, prediction masks, ground truth.

On-disk layout of a dataset directory:

* ``manifest.jsonl`` -- one JSON object per frame with keys ``frame_id``,
  ``depth`` (relative path to a 16-bit PGM), ``predictions`` (relative path
  to a JSON file), ``pose`` (camera-to-world rotation, row-major 9 floats,
  plus translation) and ``intrinsics``.  An optional ``rgb`` key may point
  at a binary PPM used only for archiving disambiguation views.
* ``predictions/<frame>.json`` -- ``{"instances": [{"category", "confidence",
  "rle"}]}`` with uncompressed run-length masks (runs alternate starting with
  the zero run, filling the image row-major), decoded once, when the frame
  is loaded.
* ``ground_truth.json`` -- pre-voxelized instances at map resolution,
  loaded as sorted packed voxel keys (see :mod:`voxelmap`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import _all_of, _checked, _number, _numbers, reading
from .voxelmap import pack_keys, unpack_key_array


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
        # NaN fails no comparison below, so non-finite values are caught here
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy, self.depth_scale))):
            raise ValueError("intrinsics hold a non-finite value")
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
        # NaN fails no comparison below, so non-finite values are caught here
        if not (np.all(np.isfinite(rotation)) and np.all(np.isfinite(translation))):
            raise ValueError("pose holds a non-finite value")
        if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if abs(float(np.linalg.det(rotation)) - 1.0) > 1e-6:
            raise ValueError("rotation determinant is not +1")

    def apply(self, points_cam: np.ndarray) -> np.ndarray:
        """World coordinates of camera points given as the columns of a ``(3, n)`` array.

        The result is C-ordered ``(3, n)``: one ``rotation @ points_cam`` and
        an in-place add of the translation, whose inner loop is n long rather
        than 3.
        """
        world = self.rotation @ points_cam
        world += self.translation[:, None]
        return world


@dataclass
class PredictionInstance:
    """One predicted instance: ``mask`` is its boolean ``(height, width)`` mask."""

    category: str
    confidence: float
    mask: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.confidence <= 1.0):
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")


@dataclass
class GroundTruthInstance:
    """One ground-truth object: ``keys`` are the sorted unique packed keys of its voxels."""

    id: str
    category: str
    keys: np.ndarray = field(repr=False, compare=False)


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
    """One fully decoded frame: ``depth`` is the raw ``(height, width)``
    uint16 image, 0 where invalid, in units of the intrinsics' depth scale,
    and each prediction holds its decoded mask of the same size."""

    record: FrameRecord
    depth: np.ndarray
    predictions: list[PredictionInstance] = field(default_factory=list)

    @property
    def frame_id(self) -> int:
        return self.record.frame_id


def decode_rle_mask(runs: list[int], width: int, height: int) -> np.ndarray:
    """Expand an uncompressed RLE into a boolean row-major (height, width) mask.

    Runs alternate value starting with the zero run; a leading 0 encodes a
    mask that starts with ones.  The one check of run lengths: a negative
    run, or runs that do not sum to ``width * height``, raise DatasetError.
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
    us: np.ndarray, vs: np.ndarray, depth_raw: np.ndarray, intrinsics: CameraIntrinsics, pose: Pose
) -> np.ndarray:
    """World points of the pixels ``(us, vs)`` at raw depths ``depth_raw``, as
    the columns of a C-ordered ``(3, n)`` array in input order.

    Every pixel given is back-projected; which depths are valid is the
    caller's decision (see :func:`voxeland.opinions.build_opinions`).
    """
    points_cam = np.empty((3, len(depth_raw)))
    x, y, z = points_cam
    np.multiply(depth_raw, intrinsics.depth_scale, out=z, dtype=float)
    np.subtract(us, intrinsics.cx, out=x, dtype=float)
    x *= z
    x /= intrinsics.fx
    np.subtract(vs, intrinsics.cy, out=y, dtype=float)
    y *= z
    y /= intrinsics.fy
    return pose.apply(points_cam)


def _read_netpbm(
    path: Path | str, magic: bytes, maxval: int, sample_bytes: int
) -> tuple[int, int, bytes]:
    """Read a binary netpbm file with the given maxval; returns (width,
    height, raster) with ``sample_bytes`` raster bytes per pixel."""
    data = Path(path).read_bytes()
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
    if not all(token.isdigit() for token in tokens[1:]):
        raise DatasetError(f"{path}: netpbm size and maxval are not decimal digits: {tokens[1:]}")
    width, height, found = map(int, tokens[1:])
    if found != maxval:
        raise DatasetError(f"{path}: expected maxval {maxval}, got {found}")
    expected = width * height * sample_bytes
    # exactly one whitespace byte separates the maxval from the raster
    raster = data[pos + 1 : pos + 1 + expected]
    if len(raster) != expected:
        raise DatasetError(f"{path}: truncated raster")
    return width, height, raster


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary 16-bit PGM (P5, maxval 65535, big-endian samples) into
    a ``(height, width)`` uint16 array."""
    width, height, raster = _read_netpbm(path, b"P5", 65535, 2)
    return np.frombuffer(raster, dtype=">u2").astype(np.uint16).reshape(height, width)


def write_pgm(path: Path | str, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=np.uint16)
    height, width = values.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + values.astype(">u2").tobytes())


def read_ppm(path: Path | str) -> np.ndarray:
    """Read a binary 8-bit PPM (P6) into an (h, w, 3) uint8 array."""
    width, height, raster = _read_netpbm(path, b"P6", 255, 3)
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path: Path | str, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.uint8)
    height, width, _ = pixels.shape
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def _parse_pose(obj: dict) -> Pose:
    """A pose of 9 row-major rotation numbers and 3 translation numbers."""
    return Pose(
        rotation=_numbers(obj["rotation"], "rotation", 9),
        translation=_numbers(obj["translation"], "translation", 3),
    )


def _parse_intrinsics(obj: dict) -> CameraIntrinsics:
    """Intrinsics with integer ``width`` and ``height`` and numbers for the rest."""
    numbers = {
        name: _number(obj[name], name) for name in ("fx", "fy", "cx", "cy", "depth_scale")
    }
    return CameraIntrinsics(
        width=_checked(obj["width"], "width", int),
        height=_checked(obj["height"], "height", int),
        **numbers,
    )


def _parse_prediction(obj: dict, width: int, height: int, where: str) -> PredictionInstance:
    """A prediction with a string category, a numeric confidence and integer
    runs that decode to a ``width`` x ``height`` mask; ``where`` heads the
    message of runs that do not."""
    rle = _checked(obj["rle"], "rle", list)
    if not _all_of(rle, int):
        raise TypeError("a run length is not an integer")
    category = _checked(obj["category"], "category", str)
    confidence = _number(obj["confidence"], "confidence")
    try:
        mask = decode_rle_mask(rle, width, height)
    except DatasetError as exc:
        raise DatasetError(f"{where}{exc}") from exc
    return PredictionInstance(category=category, confidence=confidence, mask=mask)


def load_manifest(path: Path | str) -> list[FrameRecord]:
    """Parse a JSON-lines manifest, preserving frame order.

    A line that is not UTF-8 JSON of a frame, or holds an invalid pose or
    intrinsics, raises :class:`DatasetError` carrying its 1-based number.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"manifest not found: {path}")
    root = path.parent
    records: list[FrameRecord] = []
    # bytes split at the line ends a text read splits at: \n, \r and \r\n
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        with reading(f"{path}: line {lineno}", DatasetError):
            text = line.decode("utf-8").strip()
            if not text:
                continue
            obj = json.loads(text)
            records.append(FrameRecord(
                frame_id=_checked(obj["frame_id"], "frame_id", int),
                depth_path=root / obj["depth"],
                predictions_path=root / obj["predictions"],
                pose=_parse_pose(obj["pose"]),
                intrinsics=_parse_intrinsics(obj["intrinsics"]),
                rgb_path=(root / obj["rgb"]) if obj.get("rgb") else None,
            ))
    return records


def load_predictions(
    path: Path | str, width: int, height: int, frame_id: int | None = None
) -> list[PredictionInstance]:
    """The predictions of a ``width`` x ``height`` frame, each mask decoded once.

    A malformed file raises :class:`DatasetError` naming it; runs that do not
    decode also name the instance and the frame, when ``frame_id`` is given.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"predictions file not found: {path}")
    with reading(path, DatasetError):
        obj = json.loads(path.read_text(encoding="utf-8"))
        predictions = []
        for index, item in enumerate(obj["instances"]):
            where = "" if frame_id is None else f"frame {frame_id}: instance {index}: "
            predictions.append(_parse_prediction(item, width, height, where))
        return predictions


def load_frame(record: FrameRecord) -> Frame:
    depth = read_pgm(record.depth_path)
    width, height = record.intrinsics.width, record.intrinsics.height
    if depth.shape != (height, width):
        raise DatasetError(
            f"{record.depth_path}: frame {record.frame_id}: depth size {depth.shape[1]}x"
            f"{depth.shape[0]} does not match intrinsics {width}x{height}"
        )
    predictions = load_predictions(record.predictions_path, width, height, record.frame_id)
    return Frame(record=record, depth=depth, predictions=predictions)


def load_ground_truth(path: Path | str) -> GroundTruthScene:
    path = Path(path)
    if not path.is_file():
        raise DatasetError(f"ground truth file not found: {path}")
    with reading(path, DatasetError):
        obj = json.loads(path.read_text(encoding="utf-8"))
        voxel_size = _number(obj["voxel_size"], "voxel_size")
        if voxel_size <= 0:
            raise ValueError(f"voxel_size {voxel_size!r} is not positive")
        instances = []
        seen: set[str] = set()
        for inst in obj["instances"]:
            gt_id = _checked(inst["id"], "id", str)
            if gt_id in seen:
                raise ValueError(f"duplicate ground-truth instance id {gt_id!r}")
            seen.add(gt_id)
            voxels = _checked(inst["voxels"], "voxels", list)
            for voxel in voxels:
                if not (type(voxel) is list and len(voxel) == 3 and _all_of(voxel, int)):
                    raise ValueError(f"ground-truth voxel {voxel!r} is not three integers")
            if not voxels:
                raise ValueError(f"ground-truth instance {gt_id!r} has no voxels")
            category = _checked(inst["category"], "category", str)
            # packed once, here; a voxel listed twice counts once
            keys = np.unique(pack_keys(np.array(voxels, dtype=np.int64)))
            instances.append(GroundTruthInstance(id=gt_id, category=category, keys=keys))
        return GroundTruthScene(voxel_size=voxel_size, instances=instances)


def save_ground_truth(path: Path | str, scene: GroundTruthScene) -> None:
    obj = {
        "voxel_size": scene.voxel_size,
        "instances": [
            {
                "id": inst.id,
                "category": inst.category,
                "voxels": unpack_key_array(inst.keys).tolist(),
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
