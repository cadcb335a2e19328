"""Sparse volumetric map with per-voxel instance evidence, stored as arrays.

Voxels are addressed by packed int64 keys (:func:`pack_keys`), whose order
is the (i, j, k) order of the keys.  The map's cells are one sorted key array
with aligned occupancy log-odds (binary Bayes filter, clamped).  Each instance
record holds its footprint: the sorted keys of the voxels where it has
evidence, with the number of its 3D points registered in each.  A cell may
have no owner (carved free space); every footprint key is a cell.  Instances
also accumulate per-category confidence mass and an observation log used
later for view selection.  Instance id 0 is reserved for the ``unknown``
instance absorbing observed-but-unrecognized geometry.  A list of
footprints has one index, :class:`OwnerTable`: the layers, exports and
evaluation read the map's, keys included, and :func:`overlap_counts`, the
kernel of association, refinement and evaluation, builds one of its own;
:func:`overlap_scores` turns its counts into their iou and ios.

A snapshot file holds these arrays as they are, as ``.npy`` records behind
one JSON header for the registries; loading checks every invariant above.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .atomic import _all_of, _checked, _number, atomic_write, reading

UNKNOWN_INSTANCE_ID = 0
UNKNOWN_CATEGORY = "unknown"

SNAPSHOT_SCHEMA_VERSION = 2

# The records of a snapshot file, in file order, with their dtypes.
_SNAPSHOT_RECORDS = {
    "header": np.dtype("u1"),
    "cell keys": np.dtype("<i8"),
    "cell log-odds": np.dtype("<f8"),
    "footprint keys": np.dtype("<i8"),
    "footprint counts": np.dtype("<i8"),
}


class SnapshotError(ValueError):
    """Raised when a snapshot is not a map of this schema version."""


VoxelKey = tuple[int, int, int]

# Key packing: each signed coordinate is offset into 21 bits, so packed keys
# fit in an int64 and sort as scalars in (i, j, k) order.
_KEY_OFFSET = 1 << 20
_KEY_BITS = 21
_KEY_MASK = (1 << _KEY_BITS) - 1


def points_to_keys(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """(n, 3) float points to (n, 3) int64 keys: the componentwise floor of point / voxel_size.

    The floored quotients are checked against the packable range [-2^20, 2^20),
    which NaN fails too, before the integer cast: a non-finite point or an
    out-of-range voxel is one ValueError naming the size, with no numpy warning."""
    with np.errstate(over="ignore"):
        keys = np.floor(np.asarray(points, dtype=float) / voxel_size)
    if keys.size and not (keys.min() >= -_KEY_OFFSET and keys.max() < _KEY_OFFSET):
        raise ValueError(f"a point is not finite or its voxel of size {voxel_size} is outside [-2^20, 2^20)")
    return keys.astype(np.int64)


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


def overlap_counts(
    queries: list[np.ndarray], footprints: list[np.ndarray], counts: list[np.ndarray] | None = None
) -> np.ndarray:
    """The (query, footprint) matrix of the voxels each query shares with
    each footprint, all given as sorted unique packed keys.  With ``counts``,
    one array aligned with each query's keys, an entry sums the counts of the
    shared voxels instead.

    The footprints are indexed once, as an :class:`OwnerTable` whose ids are
    their positions.  Each query voxel finds its cell's run of owners with
    one ``searchsorted`` over the table's keys, and one ``bincount`` over
    all runs sums the pairs.
    """
    table = OwnerTable(footprints, np.arange(len(footprints)))
    keys = np.concatenate([_no_keys(), *queries])
    query = np.repeat(np.arange(len(queries)), [len(keys) for keys in queries])
    cell = np.searchsorted(table.keys, keys)
    # a key past the last cell reads an empty run appended after it
    runs = np.append(table.sizes, 0)[cell] * (np.append(table.keys, -1)[cell] == keys)
    first = np.append(table.starts, 0)[cell]
    # entry e of a voxel's run is table entry first + e
    entries = np.repeat(first - (np.cumsum(runs) - runs), runs) + np.arange(runs.sum())
    pairs = np.repeat(query * len(footprints), runs) + table.ids[entries]
    # weighted counts sum exactly in float64 while they stay far below 2**53
    weights = None if counts is None else np.repeat(np.concatenate([_no_keys(), *counts]), runs)
    summed = np.bincount(pairs, weights=weights, minlength=len(queries) * len(footprints))
    return summed.astype(np.int64).reshape(len(queries), len(footprints))


def overlap_scores(overlap, size_a, size_b) -> tuple[np.ndarray, np.ndarray]:
    """The iou, overlap / (size_a + size_b - overlap), and the ios, overlap /
    min(size_a, size_b), of overlaps between items of the given sizes, all
    broadcast together.

    A score is 0 where its denominator is not positive.  Both are clamped to
    at most 1: an opinion's size is a point count while an instance's is a
    voxel count, so a dense opinion inside a small footprint has raw ratios
    above 1.
    """
    union = np.add(size_a, size_b) - overlap  # of the shape of the scores
    scores = []
    for denominator in (union, np.minimum(size_a, size_b)):
        score = np.divide(overlap, denominator, out=np.zeros(union.shape), where=denominator > 0)
        scores.append(np.minimum(score, 1.0, out=score))
    iou, ios = scores
    return iou, ios


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
    if len(keys):
        missing = keys[np.minimum(rows, len(keys) - 1)] != new_keys
    else:
        missing = np.ones(len(new_keys), dtype=bool)
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


@dataclass
class Cells:
    """The map's cells: sorted unique packed keys with aligned occupancy log-odds."""

    keys: np.ndarray = field(default_factory=_no_keys)
    log_odds: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class ContestedCells:
    """The cells of an :class:`OwnerTable` with two or more owners, in key order.

    ``cells`` are their indices in the table and ``sizes`` their numbers of
    owners.  Their runs of entries are laid end to end, each cell's from
    ``starts`` on: the ``ids`` and ``counts`` of its owners in ascending id
    order, and each one's share of the cell's total, count / total, as
    floats.  The totals are exact: a map's counts sum far below 2**53.
    """

    cells: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    shares: np.ndarray


class OwnerTable:
    """The index of a list of footprints, built from the footprints alone.

    ``keys`` are their distinct keys in ascending order, one per cell with
    evidence.  Each cell owns the run of entries from ``starts`` on, ``sizes``
    long: the ``ids`` of the footprints holding it, in the footprints' order,
    and their ``counts`` there when the footprints' counts are given.  Most
    cells of a map have one owner, which holds all of their evidence, so the
    readers of the counts do per-entry work only on :meth:`contested`.
    """

    def __init__(self, footprints: list[np.ndarray], ids, counts: list[np.ndarray] | None = None) -> None:
        keys = np.concatenate([_no_keys(), *footprints])
        # a stable sort keeps the footprints' order within each key
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        self.ids = np.repeat(np.asarray(ids, dtype=np.int64), list(map(len, footprints)))[order]
        self.counts = None if counts is None else np.concatenate([_no_keys(), *counts])[order]
        # packed keys are non-negative, so the first entry differs from -1
        self.starts = np.flatnonzero(np.diff(keys, prepend=-1))
        self.sizes = np.diff(self.starts, append=len(keys))
        self.keys = keys[self.starts]

    def contested(self) -> ContestedCells:
        """The cells with two or more owners and their entries, read from
        ``starts`` and ``sizes`` without a pass over the other cells' entries."""
        cells = np.flatnonzero(self.sizes > 1)
        sizes = self.sizes[cells]
        starts = np.cumsum(sizes) - sizes
        # entry e of a cell's run is table entry first + e
        entries = np.repeat(self.starts[cells] - starts, sizes) + np.arange(sizes.sum())
        counts = self.counts[entries]
        totals = np.add.reduceat(counts, starts).astype(float) if len(cells) else np.empty(0)
        shares = counts / np.repeat(totals, sizes)
        return ContestedCells(cells, sizes, starts, self.ids[entries], counts, shares)

    def argmax_owners(self) -> np.ndarray:
        """The instance with the most evidence in each cell with evidence; ties go to the smallest id.

        A cell's one owner is its argmax.  A contested cell's entries are in
        ascending id order, so its first entry that reaches the cell's
        largest count is the one."""
        owners = self.ids[self.starts]
        contested = self.contested()
        if len(contested.cells):
            counts = contested.counts
            most = np.repeat(np.maximum.reduceat(counts, contested.starts), contested.sizes)
            entries = np.where(counts == most, np.arange(len(counts)), len(counts))
            owners[contested.cells] = contested.ids[np.minimum.reduceat(entries, contested.starts)]
        return owners


class MapState:
    """The volumetric map: cells, instance registry, category registry.

    Mutations are expected to come from a single integration owner; readers
    may snapshot at any frame boundary.
    """

    def __init__(self, voxel_size: float, occupancy: OccupancyParams | None = None) -> None:
        if not (math.isfinite(voxel_size) and voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {voxel_size}")
        self.voxel_size = float(voxel_size)
        self.occupancy = occupancy or OccupancyParams()
        self.cells = Cells()
        self.instances: dict[int, InstanceRecord] = {
            UNKNOWN_INSTANCE_ID: InstanceRecord(id=UNKNOWN_INSTANCE_ID)
        }
        self.categories: list[str] = [UNKNOWN_CATEGORY]
        self.frames_integrated = 0
        self._next_instance_id = 1

    # -- registries ---------------------------------------------------------

    def new_instance(self) -> int:
        instance_id = self._next_instance_id
        self._next_instance_id += 1
        self.instances[instance_id] = InstanceRecord(id=instance_id)
        return instance_id

    def register_category(self, category: str) -> None:
        if category not in self.categories:
            self.categories.append(category)

    # -- cell updates -------------------------------------------------------

    def add_cells(self, keys: np.ndarray) -> None:
        """Make each voxel of the sorted unique packed ``keys`` a cell; a
        voxel new to the map starts at log-odds 0."""
        self.cells.keys, self.cells.log_odds, _ = _sorted_add(
            self.cells.keys, self.cells.log_odds, keys
        )

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
        """The evidence of every footprint, with each cell's owners in ascending id order."""
        records = [self.instances[instance_id] for instance_id in sorted(self.instances)]
        return OwnerTable([r.keys for r in records], [r.id for r in records], [r.counts for r in records])

    # -- serialization ------------------------------------------------------

    def _snapshot_fields(self) -> dict:
        """The snapshot's header: every field but the cell and footprint arrays."""
        instances = [
            {
                "id": record.id,
                "category_evidence": record.category_evidence,
                "voxel_count": record.voxel_count,
                "final_category": record.final_category,
                "flagged": record.flagged,
                "observations": list(map(vars, record.observations)),
            }
            for record in (self.instances[i] for i in sorted(self.instances))
        ]
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "voxel_size": self.voxel_size,
            "occupancy": asdict(self.occupancy),
            "frames_integrated": self.frames_integrated,
            "next_instance_id": self._next_instance_id,
            "categories": list(self.categories),
            "instances": instances,
        }

    def save_snapshot(self, path: Path | str) -> None:
        """Write the map as a schema-2 snapshot: the ``_SNAPSHOT_RECORDS`` as
        ``.npy`` records, one after another in one file.

        The header is :meth:`_snapshot_fields` as compact, sorted-key JSON
        in UTF-8.  The footprints are concatenated in the header's instance
        order (ascending id), each as long as its ``voxel_count``.  The same
        map always gives the same bytes.
        """
        header = json.dumps(self._snapshot_fields(), sort_keys=True, separators=(",", ":"))
        records = [self.instances[i] for i in sorted(self.instances)]
        arrays = [
            np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
            self.cells.keys,
            self.cells.log_odds,
            np.concatenate([_no_keys()] + [record.keys for record in records]),
            np.concatenate([_no_keys()] + [record.counts for record in records]),
        ]
        with atomic_write(path, binary=True) as handle:
            for array, dtype in zip(arrays, _SNAPSHOT_RECORDS.values()):
                np.lib.format.write_array(handle, array.astype(dtype, copy=False), allow_pickle=False)

    @classmethod
    def load_snapshot(cls, path: Path | str) -> "MapState":
        """Read a map written by :meth:`save_snapshot`.

        Raises SnapshotError, naming ``path``, when the file is not a
        schema-2 snapshot or holds a malformed map; see :meth:`_from_records`.
        A record whose header declares more bytes than the file has left is
        rejected before anything is allocated for it.
        A file that opens with ``{`` is a schema-1 JSON snapshot, which is no
        longer read.
        """
        with reading(path, SnapshotError):
            with open(path, "rb") as handle, warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning while numpy reads a record is an error
                if handle.peek(1).startswith(b"{"):
                    raise SnapshotError("schema-1 JSON snapshots are no longer read; rebuild the map")
                records = [_read_record(handle, name) for name in _SNAPSHOT_RECORDS]
                if handle.read(1):
                    raise SnapshotError("trailing bytes after the last record")
            return cls._from_records(records)

    @classmethod
    def _from_records(cls, records: list[np.ndarray]) -> "MapState":
        """Rebuild a map from the records of a snapshot file.

        Raises SnapshotError, or one of the errors :meth:`load_snapshot` turns
        into one, when a record is not a 1-d array of its dtype or the map is
        malformed: a header that is not UTF-8 JSON of schema version
        SNAPSHOT_SCHEMA_VERSION, a missing header key, a value not of its
        exact JSON type (a bool is not an int, and a number where a float is
        expected must be finite), invalid occupancy parameters, a category
        registry that does not begin with the unknown category or lists one
        twice, an instance registry without the unknown instance or whose
        ``next_instance_id`` is not above every listed id, a category evidence
        mass that is not above 0 (integration only adds confidences in (0,
        1]), a negative ``voxel_count`` or ``voxel_count``s that do not sum to
        the footprint length, cell keys that are negative or not strictly
        increasing, a log-odds that is not finite, an evidence count below 1,
        a footprint whose keys are not strictly increasing, or a footprint key
        that is not a cell.  Every non-negative int64 is a packed key.
        """
        for record, (name, dtype) in zip(records, _SNAPSHOT_RECORDS.items()):
            if record.ndim != 1 or record.dtype != dtype:
                raise SnapshotError(f"the {name} record is not a 1-d {dtype.str} array")
        header, cell_keys, log_odds, footprint_keys, footprint_counts = records
        obj = json.loads(header.tobytes().decode("utf-8"))
        version = obj.get("schema_version") if isinstance(obj, dict) else None
        if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema_version {version!r} is not {SNAPSHOT_SCHEMA_VERSION}"
            )
        params = obj["occupancy"]
        occupancy = OccupancyParams(**{
            f.name: _checked(params[f.name], f.name, int, float)
            for f in fields(OccupancyParams)
        })
        voxel_size = _checked(obj["voxel_size"], "voxel_size", int, float)
        state = cls(voxel_size=voxel_size, occupancy=occupancy)
        state.frames_integrated = _checked(obj["frames_integrated"], "frames_integrated", int)
        state._next_instance_id = _checked(obj["next_instance_id"], "next_instance_id", int)
        state.categories = list(_checked(obj["categories"], "categories", list))
        if not _all_of(state.categories, str):
            raise TypeError("a category is not a string")
        if state.categories[:1] != [UNKNOWN_CATEGORY]:
            raise SnapshotError(f"the category registry does not begin with {UNKNOWN_CATEGORY!r}")
        if len(set(state.categories)) != len(state.categories):
            raise SnapshotError("a category is listed twice")
        state.instances = {}
        voxel_counts: list[int] = []
        for inst in obj["instances"]:
            record = InstanceRecord(
                id=_checked(inst["id"], "instance id", int),
                category_evidence=_evidence(inst["category_evidence"]),
                final_category=_checked(inst["final_category"], "final_category", str, type(None)),
                flagged=_checked(inst["flagged"], "flagged", bool),
                observations=list(map(_observation, inst["observations"])),
            )
            for label, mass in record.category_evidence.items():
                if not mass > 0.0:
                    raise SnapshotError(
                        f"instance {record.id}: category evidence {label!r} of {mass!r} is not above 0"
                    )
            voxel_count = _checked(inst["voxel_count"], "voxel_count", int)
            if voxel_count < 0:
                raise SnapshotError(f"instance {record.id}: voxel_count {voxel_count} is negative")
            voxel_counts.append(voxel_count)
            state.instances[record.id] = record
        if len(state.instances) != len(obj["instances"]):
            raise SnapshotError("an instance is listed twice")
        if UNKNOWN_INSTANCE_ID not in state.instances:
            raise SnapshotError(f"the unknown instance {UNKNOWN_INSTANCE_ID} is not listed")
        if state._next_instance_id <= max(state.instances):
            raise SnapshotError(
                f"next_instance_id {state._next_instance_id} is not above every listed id"
            )

        if len(log_odds) != len(cell_keys) or len(footprint_counts) != len(footprint_keys):
            raise SnapshotError("the log-odds or the counts are not as many as their keys")
        if np.any(cell_keys[1:] <= cell_keys[:-1]):
            raise SnapshotError("the cell keys are not strictly increasing")
        if len(cell_keys) and cell_keys[0] < 0:
            raise SnapshotError(f"cell key {cell_keys[0]} is negative, outside the packable range")
        if not np.all(np.isfinite(log_odds)):
            raise SnapshotError("a cell log-odds is not finite")
        if np.any(footprint_counts < 1):
            raise SnapshotError(f"evidence count {footprint_counts.min()} is below 1")
        if not np.all(in_sorted(cell_keys, footprint_keys)):
            raise SnapshotError("a footprint key is not a cell")
        if sum(voxel_counts) != len(footprint_keys):
            raise SnapshotError(
                f"the voxel_counts sum to {sum(voxel_counts)}, not to the {len(footprint_keys)} footprint keys"
            )
        state.cells = Cells(cell_keys, log_odds)
        stop = 0
        for record, voxel_count in zip(state.instances.values(), voxel_counts):
            start, stop = stop, stop + voxel_count
            record.keys, record.counts = footprint_keys[start:stop], footprint_counts[start:stop]
            if np.any(record.keys[1:] <= record.keys[:-1]):
                raise SnapshotError(f"instance {record.id}: its footprint keys are not strictly increasing")
        return state


def _read_record(handle: BinaryIO, name: str) -> np.ndarray:
    """The next ``.npy`` record of a snapshot file, read only once the size
    its header declares is known to fit in the bytes left in the file."""
    start = handle.tell()
    version = np.lib.format.read_magic(handle)
    # any version but 1.0 is read as 2.0: read_array then rejects a version
    # other than 1.0, 2.0 and 3.0, and 3.0 differs from 2.0 only in encoding
    formats = np.lib.format
    read_header = formats.read_array_header_1_0 if version == (1, 0) else formats.read_array_header_2_0
    shape, _, dtype = read_header(handle)
    size = math.prod(shape) * dtype.itemsize
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if size > left:
        raise SnapshotError(f"the {name} record declares {size} bytes, but {left} are left in the file")
    handle.seek(start)
    return np.lib.format.read_array(handle, allow_pickle=False)


def _evidence(values: dict) -> dict[str, float]:
    """A parsed ``category_evidence``: finite numbers by category, as floats."""
    return {
        label: _number(value, "category evidence")
        for label, value in _checked(values, "category_evidence", dict).items()
    }


def _observation(o: dict) -> Observation:
    """A parsed observation, each field checked by exact type."""
    bbox = _checked(o["pixel_bbox"], "pixel_bbox", list, type(None))
    if bbox is not None and (len(bbox) != 4 or not _all_of(bbox, int)):
        raise TypeError(f"pixel_bbox {bbox!r} is not four integers")
    return Observation(
        frame_id=_checked(o["frame_id"], "frame_id", int),
        category=_checked(o["category"], "category", str),
        confidence=_number(o["confidence"], "confidence"),
        pixel_bbox=tuple(bbox) if bbox else None,
        view_path=_checked(o["view_path"], "view_path", str, type(None)),
    )
