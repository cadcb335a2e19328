"""Sparse voxel-hashed volumetric map with per-voxel instance evidence.

Every voxel cell carries occupancy log-odds (binary Bayes filter, clamped)
and a sparse integer evidence vector counting how many 3D points of each map
instance were registered in it.  Instances live in a registry that also
accumulates per-category confidence mass and an observation log used later
for view selection.  Instance id 0 is reserved for the ``unknown`` instance
absorbing observed-but-unrecognized geometry.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .evidence import CategoricalDistribution, EvidenceVector, NoEvidenceError, probabilities

UNKNOWN_INSTANCE_ID = 0
UNKNOWN_CATEGORY = "unknown"

SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    """Raised when a snapshot is not a map of this schema version."""


VoxelKey = tuple[int, int, int]

# Key packing: each signed coordinate is offset into 21 bits, so packed keys
# fit in an int64 and np.unique can sort them as scalars.
_KEY_OFFSET = 1 << 20
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1


def world_to_key(point: np.ndarray, voxel_size: float) -> VoxelKey:
    """Componentwise floor of point / voxel_size."""
    point = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError(f"non-finite point {point!r}")
    key = np.floor(point / voxel_size).astype(np.int64)
    return (int(key[0]), int(key[1]), int(key[2]))


def points_to_keys(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """Vectorized world_to_key: (n, 3) float points to (n, 3) int64 keys."""
    points = np.asarray(points, dtype=float)
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite point in batch")
    return np.floor(points / voxel_size).astype(np.int64)


def pack_keys(keys: np.ndarray) -> np.ndarray:
    """(n, 3) int64 keys to (n,) int64 scalars whose order is the keys' (i, j, k) order."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size and (keys.min() < -_KEY_OFFSET or keys.max() >= _KEY_OFFSET):
        raise ValueError("voxel key out of packable range")
    shifted = keys + _KEY_OFFSET
    return (shifted[:, 0] << (2 * _KEY_BITS)) | (shifted[:, 1] << _KEY_BITS) | shifted[:, 2]


def unpack_keys(packed: np.ndarray) -> list[VoxelKey]:
    """Inverse of pack_keys: packed scalars to voxel keys of Python ints."""
    packed = np.asarray(packed, dtype=np.int64)
    i, j, k = (
        (((packed >> shift) & _KEY_MASK) - _KEY_OFFSET).tolist()
        for shift in (2 * _KEY_BITS, _KEY_BITS, 0)
    )
    return list(zip(i, j, k))


@dataclass
class OccupancyParams:
    p_hit: float = 0.7
    p_miss: float = 0.4
    log_odds_min: float = -2.0
    log_odds_max: float = 3.5

    def __post_init__(self) -> None:
        if not (0.0 < self.p_hit < 1.0 and 0.0 < self.p_miss < 1.0):
            raise ValueError(
                f"p_hit and p_miss must lie in (0, 1), got {self.p_hit} and {self.p_miss}"
            )
        if not self.log_odds_min <= self.log_odds_max:
            raise ValueError(
                f"log_odds_min {self.log_odds_min} exceeds log_odds_max {self.log_odds_max}"
            )

    @property
    def l_hit(self) -> float:
        return math.log(self.p_hit / (1.0 - self.p_hit))

    @property
    def l_miss(self) -> float:
        return math.log(self.p_miss / (1.0 - self.p_miss))


@dataclass(slots=True)
class VoxelCell:
    log_odds: float = 0.0
    instance_counts: dict[int, int] = field(default_factory=dict)

    def instance_evidence(self) -> EvidenceVector:
        return EvidenceVector(dict(self.instance_counts))

    def occupancy_probability(self) -> float:
        return 1.0 / (1.0 + math.exp(-self.log_odds))


def update_occupancy(cell: VoxelCell, hit: bool, params: OccupancyParams) -> None:
    """One Bayes-filter increment, clamped to the configured log-odds band."""
    delta = params.l_hit if hit else params.l_miss
    cell.log_odds = min(params.log_odds_max, max(params.log_odds_min, cell.log_odds + delta))


def voxel_instance_distribution(cell: VoxelCell) -> CategoricalDistribution:
    """Normalized instance ownership probabilities for one cell."""
    if not cell.instance_counts:
        raise NoEvidenceError("no evidence")
    return probabilities(cell.instance_counts)


def argmax_owner(instance_counts: Mapping[int, int]) -> int:
    """The instance with the most evidence in a non-empty cell; ties go to the smallest id."""
    if len(instance_counts) == 1:
        return next(iter(instance_counts))
    return max(sorted(instance_counts), key=instance_counts.__getitem__)


def sole_owner(instance_counts: Mapping[int, int]) -> int | None:
    """The owner of a cell with exactly one instance and positive evidence, else None.

    Such a cell's instance weights are exactly ``{owner: 1.0}``, so whatever
    is derived from them depends on the owner alone.
    """
    if len(instance_counts) != 1:
        return None
    owner = next(iter(instance_counts))
    return owner if instance_counts[owner] > 0 else None


@dataclass
class Observation:
    frame_id: int
    category: str
    confidence: float
    pixel_bbox: tuple[int, int, int, int] | None
    view_path: str | None = None


@dataclass
class InstanceRecord:
    id: int
    category_evidence: dict[str, float] = field(default_factory=dict)
    voxel_count: int = 0
    observations: list[Observation] = field(default_factory=list)
    final_category: str | None = None
    flagged: bool = False

    @property
    def is_unknown(self) -> bool:
        return self.id == UNKNOWN_INSTANCE_ID

    def category_distribution(self) -> CategoricalDistribution:
        return probabilities(self.category_evidence)


class MapState:
    """The volumetric map: cells, instance registry, category registry.

    Mutations are expected to come from a single integration owner; readers
    may snapshot at any frame boundary.
    """

    def __init__(self, voxel_size: float, occupancy: OccupancyParams | None = None) -> None:
        if voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        self.voxel_size = float(voxel_size)
        self.occupancy = occupancy or OccupancyParams()
        self.cells: dict[VoxelKey, VoxelCell] = {}
        self.instances: dict[int, InstanceRecord] = {
            UNKNOWN_INSTANCE_ID: InstanceRecord(id=UNKNOWN_INSTANCE_ID)
        }
        self.categories: list[str] = [UNKNOWN_CATEGORY]
        self._category_set: set[str] = set(self.categories)
        self.frames_integrated = 0
        self._next_instance_id = 1

    # -- registries ---------------------------------------------------------

    def new_instance(self) -> int:
        instance_id = self._next_instance_id
        self._next_instance_id += 1
        self.instances[instance_id] = InstanceRecord(id=instance_id)
        return instance_id

    def register_category(self, category: str) -> None:
        if category not in self._category_set:
            self.categories.append(category)
            self._category_set.add(category)

    # -- cell updates -------------------------------------------------------

    def cell(self, key: VoxelKey) -> VoxelCell:
        found = self.cells.get(key)
        if found is None:
            found = VoxelCell()
            self.cells[key] = found
        return found

    def add_instance_evidence(self, key: VoxelKey, instance_id: int, count: int) -> None:
        """Accumulate point-count evidence for an instance in one voxel."""
        if instance_id not in self.instances:
            raise KeyError(f"instance {instance_id} is not registered")
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {count}")
        cell = self.cell(key)
        previous = cell.instance_counts.get(instance_id, 0)
        if previous == 0:
            self.instances[instance_id].voxel_count += 1
        cell.instance_counts[instance_id] = previous + int(count)

    def apply_occupancy(self, key: VoxelKey, hit: bool) -> None:
        update_occupancy(self.cell(key), hit, self.occupancy)

    # -- integrity ----------------------------------------------------------

    def audit_voxel_counts(self) -> dict[int, int]:
        """Recompute per-instance voxel footprints from scratch.

        Raises AssertionError when a maintained counter disagrees with the
        recomputed truth; returns the recomputed counts otherwise.
        """
        recomputed = {instance_id: 0 for instance_id in self.instances}
        for cell in self.cells.values():
            for instance_id, count in cell.instance_counts.items():
                if count > 0:
                    recomputed[instance_id] += 1
        for instance_id, record in self.instances.items():
            if record.voxel_count != recomputed[instance_id]:
                raise AssertionError(
                    f"instance {instance_id}: maintained voxel_count {record.voxel_count} "
                    f"!= recomputed {recomputed[instance_id]}"
                )
        return recomputed

    def instance_footprints(self, instance_ids: Iterable[int]) -> dict[int, set[VoxelKey]]:
        """Voxels where each requested instance has evidence, in one scan of the cells."""
        footprints: dict[int, set[VoxelKey]] = {instance_id: set() for instance_id in instance_ids}
        if not footprints:
            return footprints
        for key, cell in self.cells.items():
            for instance_id, count in cell.instance_counts.items():
                if count > 0 and instance_id in footprints:
                    footprints[instance_id].add(key)
        return footprints

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        cells = [
            {
                "key": list(key),
                "log_odds": cell.log_odds,
                "instance_counts": {str(i): c for i, c in sorted(cell.instance_counts.items())},
            }
            for key, cell in sorted(self.cells.items())
        ]
        instances = [
            {
                "id": record.id,
                "category_evidence": {
                    label: record.category_evidence[label]
                    for label in sorted(record.category_evidence)
                },
                "voxel_count": record.voxel_count,
                "final_category": record.final_category,
                "flagged": record.flagged,
                "observations": [
                    {
                        "frame_id": obs.frame_id,
                        "category": obs.category,
                        "confidence": obs.confidence,
                        "pixel_bbox": list(obs.pixel_bbox) if obs.pixel_bbox else None,
                        "view_path": obs.view_path,
                    }
                    for obs in record.observations
                ],
            }
            for record in (self.instances[i] for i in sorted(self.instances))
        ]
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "voxel_size": self.voxel_size,
            "occupancy": {
                "p_hit": self.occupancy.p_hit,
                "p_miss": self.occupancy.p_miss,
                "log_odds_min": self.occupancy.log_odds_min,
                "log_odds_max": self.occupancy.log_odds_max,
            },
            "frames_integrated": self.frames_integrated,
            "next_instance_id": self._next_instance_id,
            "categories": list(self.categories),
            "instances": instances,
            "cells": cells,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MapState":
        """Rebuild a map from :meth:`to_dict` output.

        Raises SnapshotError when the schema version is not
        SNAPSHOT_SCHEMA_VERSION or the structure is malformed: a missing key,
        a value of the wrong type, or invalid occupancy parameters.
        """
        version = obj.get("schema_version") if isinstance(obj, dict) else None
        if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema_version {version!r} is not {SNAPSHOT_SCHEMA_VERSION}"
            )
        try:
            return cls._from_snapshot_dict(obj)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise SnapshotError(f"malformed snapshot: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_snapshot_dict(cls, obj: dict) -> "MapState":
        occupancy = OccupancyParams(
            p_hit=obj["occupancy"]["p_hit"],
            p_miss=obj["occupancy"]["p_miss"],
            log_odds_min=obj["occupancy"]["log_odds_min"],
            log_odds_max=obj["occupancy"]["log_odds_max"],
        )
        state = cls(voxel_size=obj["voxel_size"], occupancy=occupancy)
        state.frames_integrated = int(obj["frames_integrated"])
        state._next_instance_id = int(obj["next_instance_id"])
        state.categories = [str(c) for c in obj["categories"]]
        state._category_set = set(state.categories)
        state.instances = {}
        for inst in obj["instances"]:
            record = InstanceRecord(
                id=int(inst["id"]),
                category_evidence={k: float(v) for k, v in inst["category_evidence"].items()},
                voxel_count=int(inst["voxel_count"]),
                final_category=inst["final_category"],
                flagged=bool(inst["flagged"]),
                observations=[
                    Observation(
                        frame_id=int(o["frame_id"]),
                        category=str(o["category"]),
                        confidence=float(o["confidence"]),
                        pixel_bbox=tuple(o["pixel_bbox"]) if o["pixel_bbox"] else None,
                        view_path=o["view_path"],
                    )
                    for o in inst["observations"]
                ],
            )
            state.instances[record.id] = record
        for entry in obj["cells"]:
            key = (int(entry["key"][0]), int(entry["key"][1]), int(entry["key"][2]))
            state.cells[key] = VoxelCell(
                log_odds=float(entry["log_odds"]),
                instance_counts={int(i): int(c) for i, c in entry["instance_counts"].items()},
            )
        return state

    def save_snapshot(self, path: Path | str) -> None:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        with atomic_write(path) as handle:
            handle.write(payload)

    @classmethod
    def load_snapshot(cls, path: Path | str) -> "MapState":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise SnapshotError(f"{path}: not a JSON snapshot: {exc}") from exc
        return cls.from_dict(obj)
