"""Slow, independent reference implementations used only by the tests.

These deliberately avoid the algorithms used by the package: the digamma
oracle sums the convergent series term by term with an analytic tail bound,
clustering is a full O(n^2) pairwise construction, average precision is
integrated directly from the precision-recall points, and map refinement
rebuilds every footprint and scores every instance pair after each merge.
The map itself is modelled as a dict of voxel cells, each holding its
log-odds and a dict of instance counts (:class:`OracleMap`), the way the
package stored it before its cells became sorted key arrays and per-instance
footprints.  Overlap scores, coarse-voxel filtering and geometric
integration key every point as a tuple on its own, without packed keys.  The
entropy layers and the PLY exports compute every cell on its own and format
every vertex with its own f-string.  Back-projection and voxel keying have
one-point versions here.  A snapshot is the dict :func:`oracle_snapshot_dict`
builds, with a dict and a list per cell, dumped whole by ``json.dumps``; on
load, :func:`oracle_snapshot_cells` reads the cell list one entry at a time
into owned (row, id, count) tuples.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxeland.evidence import (
    CategoricalDistribution,
    NoEvidenceError,
    expected_entropy,
    probabilities,
    shannon_entropy,
)
from voxeland.export import layer_h_max
from voxeland.frames import CameraIntrinsics, Pose
from voxeland.fusion import AssociationConfig, MergeEvent
from voxeland.opinions import NOISE, UNKNOWN_CATEGORY, ClusteringParams, SubjectiveOpinion, dbscan
from voxeland.uncertainty import UncertaintyLayer
from voxeland.voxelmap import (
    SNAPSHOT_SCHEMA_VERSION,
    UNKNOWN_INSTANCE_ID,
    MapState,
    Observation,
    OccupancyParams,
    SnapshotError,
    VoxelKey,
    pack_keys,
    unpack_key_array,
    unpack_keys,
)

EULER_GAMMA = 0.5772156649015328606


def oracle_digamma(x: float, terms: int = 10_000) -> float:
    """Convergent-series digamma: -gamma + sum_n (1/(n+1) - 1/(n+x)).

    The truncated tail equals digamma(x + N) - digamma(N + 1), evaluated with
    the first few terms of the large-argument expansion of each; at N = 10^4
    the truncation error is far below 1e-15.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    n = np.arange(terms, dtype=float)
    partial = float(np.sum(1.0 / (n + 1.0) - 1.0 / (n + x)))

    def psi_large(z: float) -> float:
        return (
            np.log(z)
            - 1.0 / (2.0 * z)
            - 1.0 / (12.0 * z**2)
            + 1.0 / (120.0 * z**4)
            - 1.0 / (252.0 * z**6)
        )

    tail = psi_large(x + terms) - psi_large(terms + 1.0)
    return -EULER_GAMMA + partial + tail


def oracle_expected_entropy(masses: list[float]) -> float:
    total = sum(masses)
    return oracle_digamma(total) - sum(m * oracle_digamma(m) for m in masses) / total


def brute_force_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Reference DBSCAN from the full pairwise distance matrix.

    Clusters are connected components of the core-core adjacency graph,
    numbered by their smallest core point index; border points join the
    lowest-numbered cluster among their core neighbors.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    diffs = points[:, None, :] - points[None, :, :]
    within = np.sqrt((diffs**2).sum(axis=2)) <= eps
    core = within.sum(axis=1) >= min_pts  # rows include self

    # connected components over core points only
    component = np.full(n, -1, dtype=int)
    for start in range(n):
        if not core[start] or component[start] != -1:
            continue
        stack = [start]
        component[start] = start
        while stack:
            current = stack.pop()
            for neighbor in np.flatnonzero(within[current] & core):
                if component[neighbor] == -1:
                    component[neighbor] = start
                    stack.append(neighbor)

    # number clusters by smallest member core index
    roots = sorted({component[i] for i in range(n) if core[i]})
    cluster_of_root = {root: rank for rank, root in enumerate(roots)}
    for i in range(n):
        if core[i]:
            labels[i] = cluster_of_root[component[i]]
    for i in range(n):
        if core[i]:
            continue
        neighbor_clusters = [
            cluster_of_root[component[j]] for j in np.flatnonzero(within[i] & core)
        ]
        if neighbor_clusters:
            labels[i] = min(neighbor_clusters)
    return labels


def canonical_clustering(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters by first appearance so labelings compare up to renaming."""
    labels = np.asarray(labels)
    mapping: dict[int, int] = {}
    out = np.full(len(labels), -1, dtype=int)
    for i, label in enumerate(labels):
        if label == -1:
            continue
        if label not in mapping:
            mapping[label] = len(mapping)
        out[i] = mapping[label]
    return out


def brute_force_average_precision(ranked_tp_flags: list[bool], num_gt: int) -> float | None:
    """AP as a direct sum over true positives of the best precision at or
    beyond each TP's rank (equivalent to the area under the right-max
    interpolated precision-recall steps)."""
    if num_gt <= 0:
        return None
    precisions = []
    tp = 0
    for rank, flag in enumerate(ranked_tp_flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / rank)
    ap = 0.0
    for rank, flag in enumerate(ranked_tp_flags):
        if flag:
            ap += max(precisions[rank:]) / num_gt
    return ap


def world_to_key(point: np.ndarray, voxel_size: float) -> VoxelKey:
    """Componentwise floor of point / voxel_size."""
    point = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError(f"non-finite point {point!r}")
    key = np.floor(point / voxel_size).astype(np.int64)
    return (int(key[0]), int(key[1]), int(key[2]))


def backproject(
    u: int,
    v: int,
    depth_raw: int,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    max_range: float = 4.0,
) -> np.ndarray | None:
    """Lift one pixel to a world-frame point; None when the sample is invalid.

    A sample is invalid when the raw depth is the zero sentinel or the metric
    depth exceeds ``max_range``.
    """
    if not (0 <= u < intrinsics.width and 0 <= v < intrinsics.height):
        raise ValueError(f"pixel ({u}, {v}) outside {intrinsics.width}x{intrinsics.height}")
    if depth_raw == 0:
        return None
    z = depth_raw * intrinsics.depth_scale
    if z > max_range:
        return None
    point_cam = np.array(
        [(u - intrinsics.cx) * z / intrinsics.fx, (v - intrinsics.cy) * z / intrinsics.fy, z]
    )
    return pose.apply(point_cam)


def project(point_world: np.ndarray, intrinsics: CameraIntrinsics, pose: Pose) -> tuple[float, float, float]:
    """Inverse of back-projection: world point to continuous (u, v, z_meters)."""
    point_cam = pose.rotation.T @ (np.asarray(point_world, dtype=float) - pose.translation)
    z = float(point_cam[2])
    if z <= 0:
        raise ValueError("point is behind the camera")
    u = float(point_cam[0] * intrinsics.fx / z + intrinsics.cx)
    v = float(point_cam[1] * intrinsics.fy / z + intrinsics.cy)
    return u, v, z


# -- the dict-of-cells map ------------------------------------------------------


@dataclass(slots=True)
class VoxelCell:
    log_odds: float = 0.0
    instance_counts: dict[int, int] = field(default_factory=dict)

    def occupancy_probability(self) -> float:
        return 1.0 / (1.0 + math.exp(-self.log_odds))


def update_occupancy(cell: VoxelCell, hit: bool, params: OccupancyParams) -> None:
    """One Bayes-filter increment, clamped to the configured log-odds band."""
    delta = params.l_hit if hit else params.l_miss
    cell.log_odds = min(params.log_odds_max, max(params.log_odds_min, cell.log_odds + delta))


def argmax_owner(instance_counts: Mapping[int, int]) -> int:
    """The instance with the most evidence in a non-empty cell; ties go to the smallest id."""
    if len(instance_counts) == 1:
        return next(iter(instance_counts))
    return max(sorted(instance_counts), key=instance_counts.__getitem__)


def sole_owner(instance_counts: Mapping[int, int]) -> int | None:
    """The owner of a cell with exactly one instance and positive evidence, else None."""
    if len(instance_counts) != 1:
        return None
    owner = next(iter(instance_counts))
    return owner if instance_counts[owner] > 0 else None


@dataclass
class OracleRecord:
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


class OracleMap:
    """The map as a dict of cells with a maintained ``voxel_count`` per instance."""

    def __init__(self, voxel_size: float, occupancy: OccupancyParams | None = None) -> None:
        self.voxel_size = float(voxel_size)
        self.occupancy = occupancy or OccupancyParams()
        self.cells: dict[VoxelKey, VoxelCell] = {}
        self.instances: dict[int, OracleRecord] = {
            UNKNOWN_INSTANCE_ID: OracleRecord(id=UNKNOWN_INSTANCE_ID)
        }
        self.categories: list[str] = [UNKNOWN_CATEGORY]
        self.frames_integrated = 0
        self._next_instance_id = 1

    @classmethod
    def from_state(cls, state: MapState) -> "OracleMap":
        """A copy of ``state``, read from its cell arrays and footprints.

        Each cell lists its owners in ascending id order.
        """
        model = cls(state.voxel_size, state.occupancy)
        model.categories = list(state.categories)
        model.frames_integrated = state.frames_integrated
        model._next_instance_id = state._next_instance_id
        for key, log_odds in zip(unpack_keys(state.cells.keys), state.cells.log_odds.tolist()):
            model.cells[key] = VoxelCell(log_odds=log_odds)
        model.instances = {}
        for instance_id in sorted(state.instances):
            record = state.instances[instance_id]
            model.instances[instance_id] = OracleRecord(
                id=instance_id,
                category_evidence=dict(record.category_evidence),
                observations=list(record.observations),
                final_category=record.final_category,
                flagged=record.flagged,
            )
            for key, count in zip(unpack_keys(record.keys), record.counts.tolist()):
                model.add_instance_evidence(key, instance_id, count, new_cell=False)
        return model

    def new_instance(self) -> int:
        instance_id = self._next_instance_id
        self._next_instance_id += 1
        self.instances[instance_id] = OracleRecord(id=instance_id)
        return instance_id

    def cell(self, key: VoxelKey) -> VoxelCell:
        found = self.cells.get(key)
        if found is None:
            found = VoxelCell()
            self.cells[key] = found
        return found

    def add_instance_evidence(
        self, key: VoxelKey, instance_id: int, count: int, new_cell: bool = True
    ) -> None:
        """Accumulate point-count evidence for an instance in one voxel;
        with ``new_cell`` false the voxel must already be a cell."""
        if instance_id not in self.instances:
            raise KeyError(f"instance {instance_id} is not registered")
        if count < 1:
            raise ValueError(f"count must be a positive integer, got {count}")
        cell = self.cell(key) if new_cell else self.cells[key]
        previous = cell.instance_counts.get(instance_id, 0)
        if previous == 0:
            self.instances[instance_id].voxel_count += 1
        cell.instance_counts[instance_id] = previous + int(count)

    def apply_occupancy(self, key: VoxelKey, hit: bool) -> None:
        update_occupancy(self.cell(key), hit, self.occupancy)

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


def cells_of(state: MapState) -> dict[VoxelKey, VoxelCell]:
    """The cells of ``state`` as a dict keyed by voxel key, in key order."""
    return OracleMap.from_state(state).cells


def check_storage(state: MapState) -> None:
    """Assert the invariants of the array storage: cell keys and every
    footprint sorted and unique, counts at least 1, every footprint key a
    cell, and arrays of the declared dtypes and lengths."""
    keys = state.cells.keys
    assert keys.dtype == np.int64 and state.cells.log_odds.dtype == np.float64
    assert len(state.cells.log_odds) == len(keys)
    assert np.all(keys[1:] > keys[:-1])
    for record in state.instances.values():
        assert record.keys.dtype == np.int64 and record.counts.dtype == np.int64
        assert len(record.counts) == len(record.keys) == record.voxel_count
        assert np.all(record.keys[1:] > record.keys[:-1])
        assert np.all(record.counts >= 1)
        assert np.all(np.isin(record.keys, keys))


def oracle_snapshot_dict(state: MapState) -> dict:
    """The snapshot of ``state`` as a dict, built cell by cell; a snapshot
    file is ``json.dumps(oracle_snapshot_dict(state), sort_keys=True,
    separators=(",", ":"))``."""
    table = state.owner_table()
    instance_counts: list[dict[str, int]] = [{} for _ in range(len(state.cells))]
    for row, instance_id, count in zip(
        table.rows.tolist(), map(str, table.ids.tolist()), table.counts.tolist()
    ):
        instance_counts[row][instance_id] = count
    cells = [
        {"key": key, "log_odds": log_odds, "instance_counts": counts}
        for key, log_odds, counts in zip(
            unpack_key_array(state.cells.keys).tolist(),
            state.cells.log_odds.tolist(),
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
        for record in (state.instances[i] for i in sorted(state.instances))
    ]
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "voxel_size": state.voxel_size,
        "occupancy": {
            "p_hit": state.occupancy.p_hit,
            "p_miss": state.occupancy.p_miss,
            "log_odds_min": state.occupancy.log_odds_min,
            "log_odds_max": state.occupancy.log_odds_max,
        },
        "frames_integrated": state.frames_integrated,
        "next_instance_id": state._next_instance_id,
        "categories": list(state.categories),
        "instances": instances,
        "cells": cells,
    }


def oracle_snapshot_cells(
    obj: dict,
) -> tuple[np.ndarray, np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """The cells of a valid parsed snapshot, read one entry at a time: the
    sorted packed cell keys, their log-odds, and the footprint (sorted packed
    keys, counts) of each instance id that has evidence."""
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
    cell_keys, cell_log_odds = keys[order], log_odds[order]
    order = np.lexsort((keys[rows], ids))
    keys, ids, counts = keys[rows][order], ids[order], counts[order]
    footprints = {}
    for instance_id in np.unique(ids).tolist():
        start, stop = np.searchsorted(ids, [instance_id, instance_id + 1])
        footprints[instance_id] = (keys[start:stop], counts[start:stop])
    return cell_keys, cell_log_odds, footprints


def oracle_voxel_category_distribution(cell: VoxelCell, state) -> CategoricalDistribution:
    """Category distribution of one voxel by the law of total probability,
    mixing the cell's owners in the order the cell lists them."""
    weights = probabilities(cell.instance_counts)
    mixed: dict[str, float] = {}
    for instance_id, weight in weights.probs.items():
        record = state.instances[instance_id]
        if record.is_unknown or not record.category_evidence:
            mixed[UNKNOWN_CATEGORY] = mixed.get(UNKNOWN_CATEGORY, 0.0) + weight
            continue
        for category, p in record.category_distribution().probs.items():
            mixed[category] = mixed.get(category, 0.0) + weight * p
    return CategoricalDistribution(mixed)


def _oracle_merge_instances(
    model: OracleMap, keep_id: int, retire_id: int, retire_footprint: set[VoxelKey]
) -> None:
    keep = model.instances[keep_id]
    retire = model.instances[retire_id]
    for key in retire_footprint:
        cell = model.cells[key]
        moved = cell.instance_counts.pop(retire_id)
        previous = cell.instance_counts.get(keep_id, 0)
        if previous == 0:
            keep.voxel_count += 1
        cell.instance_counts[keep_id] = previous + moved
    for category, mass in retire.category_evidence.items():
        keep.category_evidence[category] = keep.category_evidence.get(category, 0.0) + mass
    keep.observations.extend(retire.observations)
    keep.final_category = None
    keep.flagged = False
    del model.instances[retire_id]


def _oracle_pair_scores(
    footprint_a: set[VoxelKey], footprint_b: set[VoxelKey]
) -> tuple[float, float]:
    overlap = len(footprint_a & footprint_b)
    union = len(footprint_a | footprint_b)
    smaller = min(len(footprint_a), len(footprint_b))
    return (
        min(1.0, overlap / union) if union > 0 else 0.0,
        min(1.0, overlap / smaller) if smaller > 0 else 0.0,
    )


def oracle_refine(state: OracleMap, config: AssociationConfig) -> list[MergeEvent]:
    """Reference map refinement: after every merge, rebuild all footprints
    from all cells and score all instance pairs in ascending id order."""
    events: list[MergeEvent] = []
    while True:
        footprints: dict[int, set[VoxelKey]] = {
            instance_id: set()
            for instance_id in state.instances
            if instance_id != UNKNOWN_INSTANCE_ID
        }
        for key, cell in state.cells.items():
            for instance_id, count in cell.instance_counts.items():
                if instance_id != UNKNOWN_INSTANCE_ID and count > 0:
                    footprints[instance_id].add(key)
        ids = sorted(footprints)
        merged = False
        for a_pos in range(len(ids)):
            if merged:
                break
            for b_pos in range(a_pos + 1, len(ids)):
                keep, retire = ids[a_pos], ids[b_pos]
                score_iou, score_ios = _oracle_pair_scores(
                    footprints[keep], footprints[retire]
                )
                if score_iou >= config.tau_iou or score_ios >= config.tau_ios:
                    _oracle_merge_instances(state, keep, retire, footprints[retire])
                    events.append(
                        MergeEvent(kept_id=keep, retired_id=retire, iou=score_iou, ios=score_ios)
                    )
                    merged = True
                    break
        if not merged:
            return events


def _point_key(point: np.ndarray, voxel_size: float) -> VoxelKey:
    i, j, k = np.floor(point / voxel_size)
    return (int(i), int(j), int(k))


def oracle_voxel_counts(opinion: SubjectiveOpinion, voxel_size: float) -> dict[VoxelKey, int]:
    """Per-voxel point counts, keying one point at a time, in sorted key order."""
    counts: dict[VoxelKey, int] = {}
    for point in opinion.points:
        key = _point_key(point, voxel_size)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def intersection_count(opinion: SubjectiveOpinion, instance, state: MapState) -> int:
    """Number of opinion points lying in voxels where the instance has evidence."""
    model = OracleMap.from_state(state)
    total = 0
    for point in opinion.points:
        cell = model.cells.get(_point_key(point, state.voxel_size))
        if cell is not None and cell.instance_counts.get(instance.id, 0) > 0:
            total += 1
    return total


def iou(opinion: SubjectiveOpinion, instance, state: MapState) -> float:
    """overlap / (points + instance voxels - overlap), clamped to 1."""
    overlap = intersection_count(opinion, instance, state)
    voxels = OracleMap.from_state(state).instances[instance.id].voxel_count
    denominator = len(opinion.points) + voxels - overlap
    return min(1.0, overlap / denominator) if denominator > 0 else 0.0


def ios(opinion: SubjectiveOpinion, instance, state: MapState) -> float:
    """overlap / min(points, instance voxels), clamped to 1."""
    overlap = intersection_count(opinion, instance, state)
    voxels = OracleMap.from_state(state).instances[instance.id].voxel_count
    smaller = min(len(opinion.points), voxels)
    return min(1.0, overlap / smaller) if smaller > 0 else 0.0


def oracle_filter_geometric_opinion(points: np.ndarray, params: ClusteringParams) -> np.ndarray:
    """Largest-cluster filter with coarse keys made distinct row-wise by
    ``np.unique(axis=0)`` rather than as packed scalars."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    keys = np.floor(points / params.coarse_voxel).astype(np.int64)
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    centers = (unique_keys.astype(float) + 0.5) * params.coarse_voxel
    labels = dbscan(centers, eps=params.eps, min_pts=params.min_pts)
    if np.all(labels == NOISE):
        return points[:0]
    winner = int(np.argmax(np.bincount(labels[labels != NOISE])))
    return points[(labels == winner)[inverse]]


def oracle_integrate(opinion: SubjectiveOpinion, instance_id: int, state: OracleMap) -> None:
    """Geometric integration one voxel at a time through the OracleMap methods."""
    for key, count in oracle_voxel_counts(opinion, state.voxel_size).items():
        state.add_instance_evidence(key, instance_id, count)
        state.apply_occupancy(key, hit=True)


def oracle_carve_free_space(
    opinion: SubjectiveOpinion,
    state: OracleMap,
    camera_origin: np.ndarray,
    stride_voxels: int = 4,
) -> None:
    """Free-space carving one ray sample at a time, one miss per sampled voxel."""
    origin = np.asarray(camera_origin, dtype=float)
    step = state.voxel_size * stride_voxels
    surface_keys = {
        tuple(k) for k in np.floor(opinion.points / state.voxel_size).astype(np.int64)
    }
    visited: set[VoxelKey] = set()
    for key in surface_keys:
        center = (np.asarray(key, dtype=float) + 0.5) * state.voxel_size
        direction = center - origin
        distance = float(np.linalg.norm(direction))
        if distance <= step:
            continue
        direction /= distance
        for t in np.arange(step, distance - state.voxel_size, step):
            sample = origin + direction * t
            sample_key = (
                int(np.floor(sample[0] / state.voxel_size)),
                int(np.floor(sample[1] / state.voxel_size)),
                int(np.floor(sample[2] / state.voxel_size)),
            )
            if sample_key in surface_keys or sample_key in visited:
                continue
            visited.add(sample_key)
            state.apply_occupancy(sample_key, hit=False)


def oracle_argmax_owner(instance_counts: dict[int, int]) -> int:
    return max(sorted(instance_counts), key=lambda i: instance_counts[i])


def oracle_geometric_entropy_map(state: OracleMap) -> UncertaintyLayer:
    values = {
        key: expected_entropy(cell.instance_counts)
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="geometric", values=values, generated_at_frame=state.frames_integrated
    )


def oracle_semantic_entropy_map(state: OracleMap) -> UncertaintyLayer:
    values = {
        key: shannon_entropy(oracle_voxel_category_distribution(cell, state))
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="semantic", values=values, generated_at_frame=state.frames_integrated
    )


def oracle_entropy_color(value: float, h_max: float) -> tuple[int, int, int]:
    if h_max <= 0:
        t = 0.0
    else:
        t = min(1.0, max(0.0, value / h_max))
    return (int(round(255 * t)), 0, int(round(255 * (1.0 - t))))


def oracle_id_color(index: int) -> tuple[int, int, int]:
    hue = (index * 0.61803398875) % 1.0
    sector = hue * 6.0
    x = 1.0 - abs(sector % 2.0 - 1.0)
    r, g, b = [(1, x, 0), (x, 1, 0), (0, 1, x), (0, x, 1), (x, 0, 1), (1, 0, x)][
        int(sector) % 6
    ]
    return (int(64 + 191 * r), int(64 + 191 * g), int(64 + 191 * b))


def oracle_write_ply(path: Path | str, points: np.ndarray, colors: np.ndarray) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(points)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    for point, color in zip(points, colors):
        lines.append(
            f"{point[0]:.6f} {point[1]:.6f} {point[2]:.6f} {color[0]} {color[1]} {color[2]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oracle_voxel_centers(keys: list[VoxelKey], voxel_size: float) -> np.ndarray:
    if not keys:
        return np.zeros((0, 3))
    return (np.asarray(keys, dtype=float) + 0.5) * voxel_size


def oracle_export_entropy_layer(
    state: MapState, layer: UncertaintyLayer, ply_path: Path | str
) -> None:
    h_max = layer_h_max(state, layer.kind)
    keys = sorted(layer.values)
    centers = _oracle_voxel_centers(keys, state.voxel_size)
    colors = np.array(
        [oracle_entropy_color(layer.values[k], h_max) for k in keys], dtype=np.uint8
    )
    oracle_write_ply(ply_path, centers, colors.reshape(-1, 3))
    sidecar = {
        "kind": layer.kind,
        "unit": "nats",
        "h_max": h_max,
        "generated_at_frame": layer.generated_at_frame,
        "values": [{"key": list(k), "entropy": layer.values[k]} for k in keys],
    }
    Path(str(ply_path) + ".json").write_text(json.dumps(sidecar, sort_keys=True), encoding="utf-8")


def oracle_export_instance_map(state: OracleMap, ply_path: Path | str) -> None:
    keys = []
    colors = []
    for key in sorted(state.cells):
        cell = state.cells[key]
        if not cell.instance_counts:
            continue
        keys.append(key)
        colors.append(oracle_id_color(oracle_argmax_owner(cell.instance_counts)))
    oracle_write_ply(
        ply_path,
        _oracle_voxel_centers(keys, state.voxel_size),
        np.array(colors, dtype=np.uint8).reshape(-1, 3),
    )


def oracle_export_semantic_map(state: OracleMap, ply_path: Path | str) -> None:
    category_index = {label: i for i, label in enumerate(state.categories)}
    keys = []
    colors = []
    for key in sorted(state.cells):
        cell = state.cells[key]
        if not cell.instance_counts:
            continue
        try:
            dist = oracle_voxel_category_distribution(cell, state)
        except NoEvidenceError:
            continue
        keys.append(key)
        colors.append(oracle_id_color(category_index.get(str(dist.argmax()), 0)))
    oracle_write_ply(
        ply_path,
        _oracle_voxel_centers(keys, state.voxel_size),
        np.array(colors, dtype=np.uint8).reshape(-1, 3),
    )
