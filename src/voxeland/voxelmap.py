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

import gc
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .atomic import _CHUNK_ROWS, _format_each, atomic_write
from .evidence import CategoricalDistribution, probabilities

UNKNOWN_INSTANCE_ID = 0
UNKNOWN_CATEGORY = "unknown"

SNAPSHOT_SCHEMA_VERSION = 1

_COMPACT_SORTED = {"sort_keys": True, "separators": (",", ":")}
_CELL_ROW = '{"instance_counts":%s,"key":[%d,%d,%d],"log_odds":%s}'
# An instance-count entry of a cell, by 2 * (first in its cell) + (last in its cell).
_ENTRY_FORMS = (",%s", ",%s}", "{%s", "{%s}")


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

    def _snapshot_fields(self) -> dict:
        """Every field of the snapshot but its cells."""
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
        }

    def _instance_counts_text(self) -> np.ndarray:
        """The JSON text of each cell's instance counts, as ``json.dumps`` with
        ``sort_keys`` writes the dict of counts by id string: owners in the
        string order of their ids (so "10" before "2"), and "{}" for a cell
        without evidence.

        Each distinct (owner, count) entry is formatted once, in the four
        forms it can take in a cell; the entries of a cell are then joined
        by ``np.add.reduceat``, which leaves a cell with one entry as it is.
        """
        table = self.owner_table()
        text = np.full(len(self.cells), "{}", dtype=object)
        if not len(table.rows):
            return text
        # rank the owners by id string and order each cell's entries by rank;
        # rows are already ascending, so entries stay within their cells
        ids, owner = np.unique(table.ids, return_inverse=True)
        by_name = np.argsort(ids.astype(str))
        names = ids[by_name].astype(str).tolist()
        rank = np.empty(len(ids), dtype=np.int64)
        rank[by_name] = np.arange(len(ids))
        owner = rank[owner.reshape(-1)]
        order = np.lexsort((owner, table.rows))
        values, value_of = np.unique(table.counts[order], return_inverse=True)
        # both codes are below the number of entries, so their pair code cannot overflow
        pairs, pair_of = np.unique(value_of.reshape(-1) * len(ids) + owner[order], return_inverse=True)
        entries = [
            '"%s":%d' % (names[name], value)
            for name, value in zip((pairs % len(ids)).tolist(), values[pairs // len(ids)].tolist())
        ]
        forms = np.array([[form % entry for form in _ENTRY_FORMS] for entry in entries], dtype=object)
        position = np.zeros(len(order), dtype=np.int64)
        position[table.starts] += 2
        position[table.starts + table.sizes - 1] += 1
        text[table.cell_rows] = np.add.reduceat(forms[pair_of.reshape(-1), position], table.starts)
        return text

    def save_snapshot(self, path: Path | str) -> None:
        """Write the map as schema-1 JSON.

        The file holds the text ``json.dumps(snapshot, sort_keys=True,
        separators=(",", ":"))`` gives for the snapshot dict, whose "cells"
        list has one ``{"instance_counts", "key", "log_odds"}`` entry per
        cell in key order.  "categories" sorts first and "cells" second, so
        the cells are formatted from the arrays and streamed in between.
        """
        fields = self._snapshot_fields()
        head = json.dumps({"categories": fields.pop("categories")}, **_COMPACT_SORTED)
        tail = json.dumps(fields, **_COMPACT_SORTED)
        counts = self._instance_counts_text()
        with atomic_write(path) as handle:
            handle.write(head[:-1] + ',"cells":[')
            for start in range(0, len(self.cells), _CHUNK_ROWS):
                stop = start + _CHUNK_ROWS
                columns = [counts[start:stop].tolist()]
                columns += unpack_key_array(self.cells.keys[start:stop]).T.tolist()
                columns.append(_format_each(self.cells.log_odds[start:stop], json.dumps))
                handle.write("," if start else "")
                handle.write(",".join(map(_CELL_ROW.__mod__, zip(*columns))))
            handle.write("]," + tail[1:])

    @classmethod
    def from_dict(cls, obj: dict) -> "MapState":
        """Rebuild a map from a parsed snapshot.

        Raises SnapshotError when the schema version is not
        SNAPSHOT_SCHEMA_VERSION or the snapshot is malformed: a missing key,
        a value of the wrong type, invalid occupancy parameters, an instance
        registry without the unknown instance or whose ``next_instance_id``
        is not above every listed id, a cell key that is not three integers
        or is given twice or lies outside the packable range, a log-odds
        that is not a finite number, an evidence count that is not an
        integer of at least 1 or is for an instance the snapshot does not
        list, or a stored ``voxel_count`` that differs from the instance's
        footprint in the cells.
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
        if len(state.instances) != len(obj["instances"]):
            raise SnapshotError("an instance is listed twice")
        if UNKNOWN_INSTANCE_ID not in state.instances:
            raise SnapshotError(f"the unknown instance {UNKNOWN_INSTANCE_ID} is not listed")
        if state._next_instance_id <= max(state.instances):
            raise SnapshotError(
                f"next_instance_id {state._next_instance_id} is not above every listed id"
            )

        keys, log_odds, rows, ids, counts = _cell_columns(obj["cells"])
        keys = pack_keys(keys)
        order = np.argsort(keys, kind="stable")
        state.cells = Cells(keys[order], log_odds[order])
        if np.any(np.diff(state.cells.keys) == 0):
            raise SnapshotError("a cell key is listed twice")
        if np.any(counts < 1):
            raise SnapshotError(f"evidence count {counts.min()} is below 1")
        if not set(np.unique(ids).tolist()) <= set(state.instances):
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

    @classmethod
    def load_snapshot(cls, path: Path | str) -> "MapState":
        """Read a map written by :meth:`save_snapshot`; see :meth:`from_dict`.

        The cyclic collector is paused while the file is parsed and
        converted: parsing allocates a dict and a list per cell, and the
        collections that would set off walk every one of them while none can
        be garbage.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                obj = json.loads(Path(path).read_text(encoding="utf-8"))
            except ValueError as exc:
                raise SnapshotError(f"{path}: not a JSON snapshot: {exc}") from exc
            return cls.from_dict(obj)
        finally:
            if enabled:
                gc.enable()


def _cell_columns(entries: list) -> tuple[np.ndarray, ...]:
    """The parsed cell list as arrays: (n, 3) keys and log-odds by entry, and
    the (entry row, instance id, count) of every evidence entry.

    Each column is gathered with ``map`` and ``itertools.chain`` over all
    entries at once, and its Python types are checked before numpy converts
    it, since the conversion would truncate a float key or count and parse
    a string log-odds.
    """
    n = len(entries)
    key_lists = list(map(itemgetter("key"), entries))
    key_values = list(itertools.chain.from_iterable(key_lists))
    if not set(map(len, key_lists)) <= {3} or not _all_of(key_values, int):
        raise TypeError("a cell key is not three integers")
    keys = np.fromiter(key_values, dtype=np.int64, count=3 * n).reshape(n, 3)
    log_odds_values = list(map(itemgetter("log_odds"), entries))
    if not _all_of(log_odds_values, int, float):
        raise TypeError("a cell log_odds is not a number")
    log_odds = np.fromiter(log_odds_values, dtype=float, count=n)
    if not np.all(np.isfinite(log_odds)):
        raise ValueError("a cell log_odds is not finite")
    instance_counts = list(map(itemgetter("instance_counts"), entries))
    sizes = np.fromiter(map(len, instance_counts), dtype=np.int64, count=n)
    id_texts = list(itertools.chain.from_iterable(instance_counts))
    id_of_text = {text: int(text) for text in set(id_texts)}
    ids = np.fromiter(map(id_of_text.__getitem__, id_texts), dtype=np.int64, count=len(id_texts))
    count_values = list(itertools.chain.from_iterable(map(dict.values, instance_counts)))
    if not _all_of(count_values, int):
        raise TypeError("an evidence count is not an integer")
    counts = np.fromiter(count_values, dtype=np.int64, count=len(count_values))
    rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
    return keys, log_odds, rows, ids, counts


def _all_of(values: list, *types: type) -> bool:
    """Whether every value is exactly of one of ``types`` (so no bool passes for an int)."""
    return set(map(type, values)) <= set(types)
