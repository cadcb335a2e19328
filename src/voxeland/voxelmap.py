"""Sparse volumetric map with per-voxel instance evidence, stored cell by cell.

Voxels are addressed by packed int64 keys (:func:`pack_keys`), whose order
is the (i, j, k) order of the keys.  The map's one store of geometric
evidence is its :class:`OwnerTable`: the sorted keys of its cells, the
occupancy log-odds of each (binary Bayes filter, clamped), and each cell's
run of owners, the instances with points registered there, with their
counts.  A cell may have no owner (carved free space).  Every reader takes
the evidence from that table as it stands, and mapping updates it in place.
Instance records hold the rest: per-category confidence mass and an
observation log used later for view selection.  Instance id 0 is reserved
for the ``unknown`` instance absorbing observed-but-unrecognized geometry.

A snapshot file holds the table's arrays as they are, as ``.npy`` records
behind one JSON header for the registries; loading checks every invariant
above.
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

SNAPSHOT_SCHEMA_VERSION = 3

# The records of a snapshot file, in file order, with their dtypes.
_SNAPSHOT_RECORDS = {
    "header": np.dtype("u1"),
    "cell keys": np.dtype("<i8"),
    "cell log-odds": np.dtype("<f8"),
    "owner counts": np.dtype("<u2"),
    "owner ids": np.dtype("<i4"),
    "evidence counts": np.dtype("<i4"),
}


class SnapshotError(ValueError):
    """Raised when a snapshot is not a map of this schema version."""


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


def overlap_counts(queries: list[np.ndarray], footprints: list[np.ndarray]) -> np.ndarray:
    """The (query, footprint) matrix of the voxels each query shares with
    each footprint, all given as sorted unique packed keys, counted over one
    owner table of the footprints whose ids are their positions."""
    keys = np.concatenate([_no_keys(), *footprints])
    order = np.argsort(keys, kind="stable")
    table = OwnerTable.empty()
    table.insert(keys[order], np.repeat(np.arange(len(footprints)), list(map(len, footprints)))[order])
    return table.overlaps(queries, len(footprints))


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


def _run_entries(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of runs laid end to end: ``sizes[r]`` of them from ``first[r]`` on, run by run."""
    # entry e of a run is first + e
    return np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _spliced(arrays: list[np.ndarray], at: np.ndarray, values: list) -> list[np.ndarray]:
    """Each of the equally long ``arrays`` with its ``values`` put before
    the ascending positions ``at``, as ``np.insert`` would, with the
    positions worked out once for all of them."""
    placed = at + np.arange(len(at))
    kept = np.ones(len(arrays[0]) + len(at), dtype=bool)
    kept[placed] = False
    kept = np.flatnonzero(kept)
    spliced = [np.empty(len(kept) + len(at), array.dtype) for array in arrays]
    for out, array, value in zip(spliced, arrays, values):
        out[placed], out[kept] = value, array
    return spliced


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
    """One map instance's category evidence, observation log and declaration."""

    id: int
    category_evidence: dict[str, float] = field(default_factory=dict)
    observations: list[Observation] = field(default_factory=list)
    final_category: str | None = None
    flagged: bool = False

    @property
    def is_unknown(self) -> bool:
        return self.id == UNKNOWN_INSTANCE_ID


@dataclass
class ContestedCells:
    """The cells of an :class:`OwnerTable` with two or more owners, in key
    order: their indices (``cells``), numbers of owners (``sizes``), and
    runs laid end to end, each from ``starts`` on, of their owners' ``ids``
    and ``counts`` and each one's exact share of the cell's total, as floats.
    """

    cells: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    shares: np.ndarray


class OwnerTable:
    """The map's cells and the evidence in them, cell by cell.

    ``keys`` are the cells' packed keys in ascending order, ``log_odds``
    their occupancy and ``sizes`` their numbers of owners.  Cell c's run of
    entries, from ``bounds[c]`` to ``bounds[c + 1]``, holds the ``ids`` of
    its owners in ascending order and their evidence ``counts``, each at
    least 1 between frames.  ``owned_cells[i]`` is the number of cells id i
    owns, kept up to date by the writes.  Most cells have one owner, so the
    readers of the counts do per-entry work only on :meth:`contested`.
    """

    def __init__(self, keys, log_odds, sizes, ids, counts) -> None:
        self.keys, self.log_odds, self.sizes, self.ids, self.counts = keys, log_odds, sizes, ids, counts
        self.bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        self.owned_cells = np.bincount(ids)

    @classmethod
    def empty(cls) -> "OwnerTable":
        return cls(_no_keys(), np.empty(0), _no_keys(), _no_keys(), _no_keys())

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def starts(self) -> np.ndarray:
        return self.bounds[:-1]

    def rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each packed key's row among the cells, or its insertion row, and whether it is a cell."""
        rows = np.searchsorted(self.keys, keys)
        if not len(self.keys):
            return rows, np.zeros(len(keys), dtype=bool)
        return rows, np.take(self.keys, rows, mode="clip") == keys

    def entries(self, rows: np.ndarray, found: np.ndarray, ids) -> tuple[np.ndarray, np.ndarray]:
        """Where owner ``ids[i]`` stands, or would stand, in the run of the
        cell at ``rows[i]`` (empty when not ``found``), and whether it is there."""
        entry = self.bounds[rows]
        end = self.bounds[rows + found]
        ids = np.broadcast_to(ids, entry.shape)
        if not len(self.ids):
            return entry, np.zeros(len(entry), dtype=bool)
        # a run's ids ascend: step past the smaller ones, a few steps at most
        first = np.take(self.ids, entry, mode="clip")
        pending = np.flatnonzero((first < ids) & (entry < end))
        while len(pending):
            entry[pending] += 1
            pending = pending[entry[pending] < end[pending]]
            pending = pending[self.ids[entry[pending]] < ids[pending]]
        present = np.take(self.ids, entry, mode="clip") == ids
        present &= entry < end
        return entry, present

    def overlaps(self, queries: list[np.ndarray], width: int, weights: list[np.ndarray] | None = None) -> np.ndarray:
        """The (len(queries), width) matrix of the voxels of each query of
        packed keys in cells that each owner id below ``width`` owns, or
        with ``weights``, one array per query, of their summed weights."""
        keys = np.concatenate([_no_keys(), *queries])
        rows, found = self.rows(keys)
        first = self.bounds[rows]
        sizes = self.bounds[rows + found] - first
        query = np.repeat(np.repeat(np.arange(len(queries)), list(map(len, queries))), sizes)
        weights = None if weights is None else np.repeat(np.concatenate([_no_keys(), *weights]), sizes)
        pairs = query * width + self.ids[_run_entries(first, sizes)]
        # weighted counts sum exactly in float64 while they stay far below 2**53
        summed = np.bincount(pairs, weights, minlength=len(queries) * width)
        return summed.astype(np.int64).reshape(len(queries), width)

    def insert(self, keys: np.ndarray, ids: np.ndarray | None = None) -> np.ndarray:
        """Make each of the sorted packed ``keys`` a cell and, with ``ids``,
        each pair ``(keys[i], ids[i])``, sorted by key, then id, and unique,
        an entry; a new cell starts at log-odds 0 and a new entry at count 0.
        Returns each key's row among the cells."""
        rows, found = self.rows(keys)
        fresh = ~found
        fresh[1:] &= keys[1:] != keys[:-1]
        entry, present = (None, np.ones(len(keys), dtype=bool)) if ids is None else self.entries(rows, found, ids)
        new = ~present
        if fresh.any():
            cells = [self.keys, self.log_odds, self.sizes]
            self.keys, self.log_odds, self.sizes = _spliced(cells, rows[fresh], [keys[fresh], 0.0, 0])
            # each key's row moves down by the cells inserted before it, a new key's own one not counted
            rows = rows + np.cumsum(fresh) - ~found
        if new.any():
            np.add.at(self.sizes, rows[new], 1)
            self.ids, self.counts = _spliced([self.ids, self.counts], entry[new], [ids[new], 0])
            added = np.bincount(ids[new])
            self.owned_cells = np.pad(self.owned_cells, (0, max(len(added) - len(self.owned_cells), 0)))
            self.owned_cells[: len(added)] += added
        if fresh.any() or new.any():
            self.bounds = np.zeros(len(self.sizes) + 1, dtype=np.int64)
            np.cumsum(self.sizes, out=self.bounds[1:])
        return rows

    def add_evidence(self, keys: np.ndarray, instance_id: int, counts: np.ndarray) -> np.ndarray:
        """Add ``counts`` points of the instance at the sorted unique packed
        ``keys``, first inserting any pair that is not an entry yet, and
        return the keys' rows among the cells."""
        rows, found = self.rows(keys)
        entry, present = self.entries(rows, found, instance_id)
        if not present.all():
            self.insert(keys, np.full(len(keys), instance_id))
            return self.add_evidence(keys, instance_id, counts)
        self.counts[entry] += counts
        return rows

    def relabel(self, retired: int, kept: int) -> None:
        """Give the entries of owner ``retired`` to the smaller id ``kept``,
        re-sorting each run they are in ([3, 5] becomes [2, 3]).  Where both
        own a cell, the counts are summed into kept's entry and the other
        one is left dead, id -1 at the front of the run, until :meth:`compact`."""
        moved = np.flatnonzero(self.ids == retired)
        cells = np.searchsorted(self.bounds, moved, side="right") - 1
        entry, both = self.entries(cells, np.ones(len(cells), dtype=bool), kept)
        self.counts[entry[both]] += self.counts[moved[both]]
        self.ids[moved] = np.where(both, -1, kept)
        if len(moved):
            self.owned_cells[kept] += len(moved) - both.sum()
            self.owned_cells[retired] = 0
        entries = _run_entries(self.bounds[cells], self.sizes[cells])
        order = np.lexsort((self.ids[entries], np.repeat(np.arange(len(cells)), self.sizes[cells])))
        self.ids[entries], self.counts[entries] = self.ids[entries[order]], self.counts[entries[order]]

    def compact(self) -> None:
        """Drop the dead entries :meth:`relabel` left."""
        dead = np.flatnonzero(self.ids < 0)
        if len(dead):
            np.subtract.at(self.sizes, np.searchsorted(self.bounds, dead, side="right") - 1, 1)
            self.ids, self.counts = np.delete(self.ids, dead), np.delete(self.counts, dead)
            self.bounds = np.concatenate([[0], np.cumsum(self.sizes)])

    def shared_cells(self, cells: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """How many of the ``cells`` each pair of the ascending ``ids`` owns,
        as a matrix over ``ids`` above its diagonal; other owners are left out."""
        sizes = self.sizes[cells]
        owners = self.ids[_run_entries(self.starts[cells], sizes)]
        columns = np.searchsorted(ids, owners)
        listed = np.append(ids, -1)[columns] == owners
        runs, columns = np.repeat(np.arange(len(cells)), sizes)[listed], columns[listed]
        # a run's owners ascend, so each pair (a, b) of a run has a before b
        pairs = [_no_keys()]
        for step in range(1, int(sizes.max(initial=0))):
            same = runs[step:] == runs[:-step]
            pairs.append(columns[:-step][same] * len(ids) + columns[step:][same])
        return np.bincount(np.concatenate(pairs), minlength=len(ids) ** 2).reshape(len(ids), len(ids))

    def contested(self) -> ContestedCells:
        """The cells with two or more owners and their entries."""
        cells = np.flatnonzero(self.sizes > 1)
        sizes = self.sizes[cells]
        starts = np.cumsum(sizes) - sizes
        entries = _run_entries(self.starts[cells], sizes)
        counts = self.counts[entries]
        totals = np.add.reduceat(counts, starts).astype(float) if len(cells) else np.empty(0)
        shares = counts / np.repeat(totals, sizes)
        return ContestedCells(cells, sizes, starts, self.ids[entries], counts, shares)

    def argmax_owners(self) -> np.ndarray:
        """The instance with the most evidence in each cell, which must have
        an owner; ties go to the smallest id, the first in a contested run."""
        owners = self.ids[self.starts]
        contested = self.contested()
        if len(contested.cells):
            counts = contested.counts
            most = np.repeat(np.maximum.reduceat(counts, contested.starts), contested.sizes)
            entries = np.where(counts == most, np.arange(len(counts)), len(counts))
            owners[contested.cells] = contested.ids[np.minimum.reduceat(entries, contested.starts)]
        return owners


class MapState:
    """The volumetric map: its owner table, instance registry and category registry.

    Mutations are expected to come from a single integration owner; readers
    may snapshot at any frame boundary.
    """

    def __init__(self, voxel_size: float, occupancy: OccupancyParams | None = None) -> None:
        if not (math.isfinite(voxel_size) and voxel_size > 0):
            raise ValueError(f"voxel_size must be finite and positive, got {voxel_size}")
        self.voxel_size = float(voxel_size)
        self.occupancy = occupancy or OccupancyParams()
        self.cells = OwnerTable.empty()
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

    def integrate_occupancy(self, keys: np.ndarray, hit: bool, rows: np.ndarray | None = None) -> None:
        """One clamped Bayes-filter hit or miss in each voxel of the sorted
        unique packed ``keys``, whose cell ``rows`` are given or looked up; a
        voxel new to the map starts at log-odds 0."""
        if rows is None:
            rows = self.cells.insert(keys)
        params = self.occupancy
        delta = params.l_hit if hit else params.l_miss
        log_odds = self.cells.log_odds
        log_odds[rows] = np.clip(log_odds[rows] + delta, params.log_odds_min, params.log_odds_max)

    # -- reading ------------------------------------------------------------

    def owner_table(self) -> OwnerTable:
        """The cells with an owner: the map's table itself unless free space was carved."""
        table = self.cells
        if table.sizes.all():
            return table
        owned = table.sizes > 0
        return OwnerTable(table.keys[owned], table.log_odds[owned], table.sizes[owned], table.ids, table.counts)

    def voxel_counts(self) -> np.ndarray:
        """The number of cells each instance id owns, indexed by id."""
        counts = np.zeros(self._next_instance_id, dtype=np.int64)
        counts[: len(self.cells.owned_cells)] = self.cells.owned_cells
        return counts

    # -- serialization ------------------------------------------------------

    def _snapshot_fields(self, directory: Path) -> dict:
        """The snapshot's header: every field but the owner table's arrays,
        with each view path relative to the snapshot's ``directory``."""
        instances = [
            {
                "id": record.id,
                "category_evidence": record.category_evidence,
                "final_category": record.final_category,
                "flagged": record.flagged,
                "observations": [
                    dict(vars(o), view_path=o.view_path and os.path.relpath(o.view_path, directory))
                    for o in record.observations
                ],
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
        """Write the map as a schema-3 snapshot: the ``_SNAPSHOT_RECORDS`` as
        ``.npy`` records in one file, the header as :meth:`_snapshot_fields`
        in compact, sorted-key UTF-8 JSON and then the owner table's arrays,
        or a ValueError, before the file is opened, for a value that does
        not fit its record's dtype.  The same map in one directory always
        gives the same bytes."""
        fields = self._snapshot_fields(Path(path).absolute().parent)
        header = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
        table = self.cells
        arrays = [np.frombuffer(header, np.uint8), table.keys, table.log_odds, table.sizes, table.ids, table.counts]
        records = [_fitted(name, array, dtype) for (name, dtype), array in zip(_SNAPSHOT_RECORDS.items(), arrays)]
        with atomic_write(path, binary=True) as handle:
            for record in records:
                np.lib.format.write_array(handle, record, allow_pickle=False)

    @classmethod
    def load_snapshot(cls, path: Path | str) -> "MapState":
        """Read a map written by :meth:`save_snapshot`.

        Raises SnapshotError, naming ``path``, when the file is not a
        schema-3 snapshot or holds a malformed map (:meth:`_from_records`).
        An older schema is refused, with a message to rebuild the map, before
        its other records are read, and a record declaring more bytes than
        the file has left before anything is allocated for it."""
        with reading(path, SnapshotError):
            with open(path, "rb") as handle, warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning while numpy reads a record is an error
                if handle.peek(1).startswith(b"{"):
                    raise SnapshotError("schema-1 JSON snapshots are no longer read; rebuild the map")
                header = _read_record(handle, "header")
                if header.ndim != 1 or header.dtype != _SNAPSHOT_RECORDS["header"]:
                    raise SnapshotError("the header record is not a 1-d |u1 array")
                header = json.loads(header.tobytes().decode("utf-8"))
                version = header.get("schema_version") if isinstance(header, dict) else None
                if type(version) is not int or version != SNAPSHOT_SCHEMA_VERSION:
                    older = type(version) is int and version < SNAPSHOT_SCHEMA_VERSION
                    rebuild = "; older snapshots are no longer read, so rebuild the map" if older else ""
                    expected = SNAPSHOT_SCHEMA_VERSION
                    raise SnapshotError(f"snapshot schema_version {version!r} is not {expected}{rebuild}")
                records = [_read_record(handle, name) for name in list(_SNAPSHOT_RECORDS)[1:]]
                if handle.read(1):
                    raise SnapshotError("trailing bytes after the last record")
            return cls._from_records(header, records, Path(path).absolute().parent)

    @classmethod
    def _from_records(cls, obj: dict, records: list[np.ndarray], directory: Path) -> "MapState":
        """Rebuild a map from the parsed header ``obj`` and the table's
        records of a snapshot file saved in ``directory``.  Raises
        SnapshotError, or an error :meth:`load_snapshot` turns into one, for
        a record or header value that breaks the schema: each check below
        names what it found, from a value not of its exact JSON type (a bool
        is not an int; a float must be finite) to an evidence count below 1."""
        for record, (name, dtype) in zip(records, list(_SNAPSHOT_RECORDS.items())[1:]):
            if record.ndim != 1 or record.dtype != dtype:
                raise SnapshotError(f"the {name} record is not a 1-d {dtype.str} array")
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
        for inst in obj["instances"]:
            record = InstanceRecord(
                id=_checked(inst["id"], "instance id", int),
                category_evidence=_evidence(inst["category_evidence"]),
                final_category=_checked(inst["final_category"], "final_category", str, type(None)),
                flagged=_checked(inst["flagged"], "flagged", bool),
                observations=[_observation(o, directory) for o in inst["observations"]],
            )
            for label, mass in record.category_evidence.items():
                if not mass > 0.0:
                    raise SnapshotError(
                        f"instance {record.id}: category evidence {label!r} of {mass!r} is not above 0"
                    )
            state.instances[record.id] = record
        if len(state.instances) != len(obj["instances"]):
            raise SnapshotError("an instance is listed twice")
        if UNKNOWN_INSTANCE_ID not in state.instances:
            raise SnapshotError(f"the unknown instance {UNKNOWN_INSTANCE_ID} is not listed")
        if state._next_instance_id <= max(state.instances):
            raise SnapshotError(
                f"next_instance_id {state._next_instance_id} is not above every listed id"
            )

        keys, log_odds, sizes, ids, counts = records
        if not len(keys) == len(log_odds) == len(sizes) or len(counts) != len(ids):
            raise SnapshotError("the log-odds, owner counts or evidence counts are not as many as their keys or ids")
        if np.any(keys[1:] <= keys[:-1]):
            raise SnapshotError("the cell keys are not strictly increasing")
        if len(keys) and keys[0] < 0:
            raise SnapshotError(f"cell key {keys[0]} is negative, outside the packable range")
        if not np.all(np.isfinite(log_odds)):
            raise SnapshotError("a cell log-odds is not finite")
        bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        if bounds[-1] != len(ids):
            raise SnapshotError(f"the owner counts sum to {bounds[-1]}, not to the {len(ids)} owner ids")
        unlisted = ids[~np.isin(ids, list(state.instances))]
        if len(unlisted):
            raise SnapshotError(f"owner id {unlisted[0]} is not a listed instance")
        # within a run the ids step up, except onto the run's first entry
        first = np.zeros(len(ids), dtype=bool)
        first[bounds[:-1][sizes > 0]] = True
        if not np.all((np.diff(ids) > 0) | first[1:]):
            raise SnapshotError("a cell's owner ids are not strictly increasing")
        if np.any(counts < 1):
            raise SnapshotError(f"evidence count {counts.min()} is below 1")
        state.cells = OwnerTable(keys, log_odds, *(array.astype(np.int64) for array in (sizes, ids, counts)))
        return state


def _fitted(name: str, array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``array`` as its record's dtype, or a ValueError naming a value that does not fit."""
    if dtype.kind in "iu" and array.size:
        info = np.iinfo(dtype)
        low, high = array.min(), array.max()
        if low < info.min or high > info.max:
            raise ValueError(f"the {name} record cannot hold {low if low < info.min else high} as {dtype.str}")
    return array.astype(dtype, copy=False)


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


def _observation(o: dict, directory: Path) -> Observation:
    """A parsed observation, each field checked by exact type and its view path resolved in ``directory``."""
    bbox = _checked(o["pixel_bbox"], "pixel_bbox", list, type(None))
    view_path = _checked(o["view_path"], "view_path", str, type(None))
    if bbox is not None and (len(bbox) != 4 or not _all_of(bbox, int)):
        raise TypeError(f"pixel_bbox {bbox!r} is not four integers")
    return Observation(
        frame_id=_checked(o["frame_id"], "frame_id", int),
        category=_checked(o["category"], "category", str),
        confidence=_number(o["confidence"], "confidence"),
        pixel_bbox=tuple(bbox) if bbox else None,
        view_path=view_path and os.path.normpath(directory / view_path),
    )
