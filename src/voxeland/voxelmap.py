"""Sparse volumetric map with per-voxel instance evidence, stored as arrays.

Voxels are addressed by packed int64 keys (:func:`pack_keys`), whose order
is the (i, j, k) order of the keys.  The map's cells are one sorted key array
with aligned occupancy log-odds (binary Bayes filter, clamped).  Each instance
record holds its footprint: the sorted keys of the voxels where it has
evidence, with the number of its 3D points registered in each.  A cell may
have no owner (carved free space); every footprint key is a cell.  Instances
also accumulate per-category confidence mass and an observation log used
later for view selection.  Instance id 0 is reserved for the ``unknown``
instance absorbing observed-but-unrecognized geometry.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .evidence import CategoricalDistribution, probabilities

UNKNOWN_INSTANCE_ID = 0
UNKNOWN_CATEGORY = "unknown"

SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    """Raised when a snapshot is not a map of this schema version."""


VoxelKey = tuple[int, int, int]

# Key packing: each signed coordinate is offset into 21 bits, so packed keys
# fit in an int64 and sort as scalars in (i, j, k) order.
_KEY_OFFSET = 1 << 20
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1


def points_to_keys(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """(n, 3) float points to (n, 3) int64 keys: the componentwise floor of point / voxel_size."""
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


def unpack_key_array(packed: np.ndarray) -> np.ndarray:
    """Inverse of pack_keys: packed scalars to (n, 3) int64 keys."""
    packed = np.asarray(packed, dtype=np.int64)
    return np.stack(
        [((packed >> shift) & _KEY_MASK) - _KEY_OFFSET for shift in (2 * _KEY_BITS, _KEY_BITS, 0)],
        axis=1,
    )


def unpack_keys(packed: np.ndarray) -> list[VoxelKey]:
    """Inverse of pack_keys: packed scalars to voxel keys of Python ints."""
    i, j, k = unpack_key_array(packed).T.tolist()
    return list(zip(i, j, k))


def in_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` found in the sorted array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    rows = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[rows] == keys


def _sorted_add(
    keys: np.ndarray, values: np.ndarray, new_keys: np.ndarray, new_values=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge sorted unique ``new_keys`` into sorted unique ``keys``: insert
    the missing ones with value 0, then add ``new_values`` (when given) at
    each.  Returns the keys, the aligned values (possibly updated in place)
    and the row of each new key.  Every write to cells and footprints goes
    through here, so both stay sorted and unique.
    """
    rows = np.searchsorted(keys, new_keys)
    missing = ~in_sorted(keys, new_keys)
    if missing.any():
        keys = np.insert(keys, rows[missing], new_keys[missing])
        values = np.insert(values, rows[missing], 0)
        # each new key moves down by the number of keys inserted before it
        rows = rows + np.cumsum(missing) - missing
    if new_values is not None:
        values[rows] += new_values
    return keys, values, rows


def _no_keys() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


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


@dataclass
class Observation:
    frame_id: int
    category: str
    confidence: float
    pixel_bbox: tuple[int, int, int, int] | None
    view_path: str | None = None


@dataclass
class InstanceRecord:
    """One map instance: its footprint, category evidence and observation log.

    ``keys`` are the sorted packed keys of the voxels where the instance has
    evidence and ``counts`` the number of its points registered in each,
    every one at least 1.
    """

    id: int
    category_evidence: dict[str, float] = field(default_factory=dict)
    observations: list[Observation] = field(default_factory=list)
    final_category: str | None = None
    flagged: bool = False
    keys: np.ndarray = field(default_factory=_no_keys, repr=False, compare=False)
    counts: np.ndarray = field(default_factory=_no_keys, repr=False, compare=False)

    @property
    def is_unknown(self) -> bool:
        return self.id == UNKNOWN_INSTANCE_ID

    @property
    def voxel_count(self) -> int:
        return len(self.keys)

    def add_evidence(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add ``counts`` points at the sorted unique packed ``keys``, which must be map cells."""
        self.keys, self.counts, _ = _sorted_add(self.keys, self.counts, keys, counts)

    def category_distribution(self) -> CategoricalDistribution:
        return probabilities(self.category_evidence)


@dataclass
class Cells:
    """The map's cells: sorted unique packed keys with aligned occupancy log-odds."""

    keys: np.ndarray = field(default_factory=_no_keys)
    log_odds: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.keys)


class OwnerTable:
    """A map's instance evidence as (cell row, instance id, count) entries,
    sorted by row and then by id.

    Each cell with evidence owns a run of entries: ``cell_rows`` holds its
    row, ``starts`` its first entry and ``sizes`` its number of owners.
    """

    def __init__(self, rows: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> None:
        self.rows, self.ids, self.counts = rows, ids, counts
        self.starts = np.flatnonzero(np.diff(rows, prepend=-1))
        self.sizes = np.diff(self.starts, append=len(rows))
        self.cell_rows = rows[self.starts]

    def cell_values(self, value_of: Callable[[dict[int, int]], float], dtype=float) -> np.ndarray:
        """``value_of(counts by instance id)`` of each cell with evidence.

        A cell with a single owner is passed ``{owner: 1}``, so its value is
        computed once per owner: the values read here depend on the owners'
        shares of the evidence, and a single owner's share is exactly 1.
        Nearly every cell has one owner; the others are passed one by one.
        """
        values = np.empty(len(self.starts), dtype=dtype)
        sole = self.sizes == 1
        owners, inverse = np.unique(self.ids[self.starts[sole]], return_inverse=True)
        by_owner = [value_of({owner: 1}) for owner in owners.tolist()]
        values[sole] = np.array(by_owner, dtype=dtype)[inverse]
        ids, counts = self.ids.tolist(), self.counts.tolist()
        starts, sizes = self.starts[~sole].tolist(), self.sizes[~sole].tolist()
        values[~sole] = [
            value_of(dict(zip(ids[start : start + size], counts[start : start + size])))
            for start, size in zip(starts, sizes)
        ]
        return values

    def argmax_owners(self) -> np.ndarray:
        """The instance with the most evidence in each cell with evidence; ties go to the smallest id."""
        order = np.lexsort((self.ids, -self.counts, self.rows))
        return self.ids[order][self.starts]


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
        self.cells = Cells()
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

    def add_instance_evidence(self, keys, instance_id: int, counts) -> None:
        """Accumulate point-count evidence for an instance in a batch of voxels.

        ``keys`` are voxel keys, shape (n, 3), or one key; ``counts`` gives
        one positive count per key, or one for all of them.  Counts of a key
        given twice add up.  A voxel new to the map becomes a cell with
        log-odds 0.
        """
        record = self.instances.get(instance_id)
        if record is None:
            raise KeyError(f"instance {instance_id} is not registered")
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), len(keys))
        if np.any(counts < 1):
            raise ValueError(f"counts must be positive integers, got {counts.min()}")
        packed, inverse = np.unique(pack_keys(keys), return_inverse=True)
        summed = np.zeros(len(packed), dtype=np.int64)
        np.add.at(summed, inverse, counts)
        self.cells.keys, self.cells.log_odds, _ = _sorted_add(
            self.cells.keys, self.cells.log_odds, packed
        )
        record.add_evidence(packed, summed)

    def integrate_occupancy(self, keys: np.ndarray, hit: bool) -> None:
        """One clamped Bayes-filter hit or miss in each voxel of the sorted
        unique packed ``keys``; a voxel new to the map starts at log-odds 0."""
        params = self.occupancy
        delta = params.l_hit if hit else params.l_miss
        self.cells.keys, log_odds, rows = _sorted_add(
            self.cells.keys, self.cells.log_odds, keys, delta
        )
        log_odds[rows] = np.clip(log_odds[rows], params.log_odds_min, params.log_odds_max)
        self.cells.log_odds = log_odds

    # -- reading ------------------------------------------------------------

    def owner_table(self) -> OwnerTable:
        """The evidence of every footprint, keyed by cell row."""
        ids = sorted(self.instances)
        records = [self.instances[instance_id] for instance_id in ids]
        keys = np.concatenate([_no_keys()] + [record.keys for record in records])
        # footprints are concatenated in ascending id order and a stable sort
        # keeps that order within each key
        order = np.argsort(keys, kind="stable")
        owners = np.repeat(np.array(ids, dtype=np.int64), [record.voxel_count for record in records])
        counts = np.concatenate([_no_keys()] + [record.counts for record in records])
        rows = np.searchsorted(self.cells.keys, keys[order])
        return OwnerTable(rows, owners[order], counts[order])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        table = self.owner_table()
        instance_counts: list[dict[str, int]] = [{} for _ in range(len(self.cells))]
        for row, instance_id, count in zip(
            table.rows.tolist(), map(str, table.ids.tolist()), table.counts.tolist()
        ):
            instance_counts[row][instance_id] = count
        cells = [
            {"key": key, "log_odds": log_odds, "instance_counts": counts}
            for key, log_odds, counts in zip(
                unpack_key_array(self.cells.keys).tolist(),
                self.cells.log_odds.tolist(),
                instance_counts,
            )
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
        SNAPSHOT_SCHEMA_VERSION or the snapshot is malformed: a missing key,
        a value of the wrong type, invalid occupancy parameters, a cell key
        given twice or outside the packable range, an evidence count below
        1 or for an instance the snapshot does not list, or a stored
        ``voxel_count`` that differs from the instance's footprint in the
        cells.
        """
        version = obj.get("schema_version") if isinstance(obj, dict) else None
        if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema_version {version!r} is not {SNAPSHOT_SCHEMA_VERSION}"
            )
        try:
            return cls._from_snapshot_dict(obj)
        except SnapshotError:
            raise
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
        stored_voxel_counts: dict[int, int] = {}
        for inst in obj["instances"]:
            record = InstanceRecord(
                id=int(inst["id"]),
                category_evidence={k: float(v) for k, v in inst["category_evidence"].items()},
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
            stored_voxel_counts[record.id] = int(inst["voxel_count"])
            state.instances[record.id] = record

        entries = obj["cells"]
        keys = np.array([entry["key"] for entry in entries], dtype=np.int64)
        if keys.shape != (len(entries), 3) and entries:
            raise SnapshotError("a cell key is not three integers")
        keys = pack_keys(keys.reshape(-1, 3))
        log_odds = np.array([float(entry["log_odds"]) for entry in entries])
        owned = [
            (row, int(instance_id), int(count))
            for row, entry in enumerate(entries)
            for instance_id, count in entry["instance_counts"].items()
        ]
        rows, ids, counts = np.array(owned, dtype=np.int64).reshape(-1, 3).T
        order = np.argsort(keys, kind="stable")
        state.cells = Cells(keys[order], log_odds[order])
        if np.any(np.diff(state.cells.keys) == 0):
            raise SnapshotError("a cell key is listed twice")
        if np.any(counts < 1):
            raise SnapshotError(f"evidence count {counts.min()} is below 1")
        if not set(ids.tolist()) <= set(state.instances):
            raise SnapshotError("cells hold evidence of unlisted instances")
        order = np.lexsort((keys[rows], ids))
        keys, ids, counts = keys[rows][order], ids[order], counts[order]
        if np.any((np.diff(ids) == 0) & (np.diff(keys) == 0)):
            raise SnapshotError("an instance is listed twice in one cell")
        for instance_id, record in state.instances.items():
            start, stop = np.searchsorted(ids, [instance_id, instance_id + 1])
            record.keys, record.counts = keys[start:stop], counts[start:stop]
            if record.voxel_count != stored_voxel_counts[instance_id]:
                raise SnapshotError(
                    f"instance {instance_id}: stored voxel_count {stored_voxel_counts[instance_id]} "
                    f"!= {record.voxel_count} voxels with its evidence"
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
