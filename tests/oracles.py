"""Slow, independent reference implementations used only by the tests.

These deliberately avoid the algorithms used by the package: the digamma
oracle sums the convergent series term by term with an analytic tail bound,
expected and Shannon entropies are taken one evidence mapping at a time,
clustering is a full O(n^2) pairwise construction or the breadth-first
search the package ran once per prediction before it clustered each frame
in one connected-components pass, average precision is
integrated directly from the precision-recall points, evaluation matching
intersects sets of voxel tuples pair by pair, association counts
each opinion's overlap with each candidate on its own, and map refinement
rebuilds every footprint and scores every instance pair after each merge.
The map itself is modelled as a dict of voxel cells, each holding its
log-odds and a dict of instance counts (:class:`OracleMap`), the way the
package stored it before its cells became sorted key arrays and per-instance
footprints.  Overlap scores, coarse-voxel filtering and geometric
integration key every point as a tuple on its own, without packed keys.  The
entropy layers and the PLY exports compute every cell on its own and format
every vertex with its own f-string.  Back-projection and voxel keying have
one-point versions here, and opinions are built one prediction at a time,
each back-projecting its own pixels with the ``(n, 3)`` product
``points @ rotation.T + translation`` and clustering its own centers.  A map's contents, for equality
checks, are the dict :func:`oracle_snapshot_dict` builds, with a dict and a
list per cell.  The synthetic renderer's reference
runs a separate slab test for the room's exit and for each box's entry, each
over ``(h, w, 3)`` ``nanmax``/``nanmin`` temporaries, and the ground-truth
shell tests every voxel of a box's span on its own.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree
from scipy.special import digamma

from voxeland.evidence import NoEvidenceError, probabilities, top_category
from voxeland.evaluation import EvalConfig, MatchRecord
from voxeland.export import layer_h_max
from voxeland.frames import CameraIntrinsics, Frame, GroundTruthScene, Pose
from voxeland.fusion import AssociationConfig, AssociationOutcome, MergeEvent
from voxeland.opinions import (
    NOISE,
    UNKNOWN_CATEGORY,
    ClusteringParams,
    SubjectiveOpinion,
    pixel_bbox,
)
from voxeland.synthetic import SyntheticScene, _pixel_rays
from voxeland.uncertainty import LayerValues, UncertaintyLayer
from voxeland.voxelmap import (
    SNAPSHOT_SCHEMA_VERSION,
    UNKNOWN_INSTANCE_ID,
    MapState,
    Observation,
    OccupancyParams,
    VoxelKey,
    in_sorted,
    pack_keys,
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


def scalar_expected_entropy(masses: Mapping) -> float:
    """The expected entropy of one evidence mapping on its own, as the
    package computed it before its one grouped pass: scipy's digamma of each
    positive finite mass, ``math.fsum`` of the total and of the weighted terms."""
    for mass in masses.values():
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(f"digamma requires a positive finite argument, got {mass!r}")
    if not masses:
        raise NoEvidenceError("no evidence")
    total = math.fsum(masses.values())
    weighted = math.fsum((mass / total) * float(digamma(float(mass))) for mass in masses.values())
    return float(digamma(total)) - weighted


def scalar_shannon_entropy(probs: Mapping) -> float:
    """Shannon entropy of one distribution in nats, 0 * ln 0 taken as 0, its
    terms subtracted in key order (the column order of a category mixture)."""
    entropy = 0.0
    for p in map(probs.__getitem__, sorted(probs)):
        if p < 0.0:
            raise ValueError(f"negative probability {p!r}")
        if p > 0.0:
            entropy -= p * math.log(p)
    return 0.0 if entropy == 0.0 else entropy


def bfs_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Reference DBSCAN by breadth-first expansion from each unvisited core
    point in input order, over ``query_ball_point`` neighborhoods.

    Cluster ids follow discovery order, so a border point reachable from
    several clusters joins the lowest cluster id: the first to reach it.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    neighborhoods = cKDTree(points).query_ball_point(points, r=eps)
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for seed in range(n):
        if visited[seed] or not core[seed]:
            continue
        queue = [seed]
        visited[seed] = True
        labels[seed] = cluster_id
        while queue:
            current = queue.pop()
            if not core[current]:
                continue
            for neighbor in neighborhoods[current]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster_id
                if not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
        cluster_id += 1
    return labels


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


def oracle_match_to_ground_truth(
    state: MapState, gt: GroundTruthScene, config: EvalConfig | None = None
) -> list[MatchRecord]:
    """Reference matching: every footprint a set of voxel tuples, and each
    (prediction, ground truth) IoU from a set intersection of its own.  A
    voxel belongs to the argmax owner of its counts, gathered cell by cell
    from the instance footprints."""
    config = config or EvalConfig()
    footprints: dict[int, set[VoxelKey]] = {}
    for key, instance_counts in _footprint_cells(state).items():
        owner = oracle_argmax_owner(instance_counts)
        if owner != UNKNOWN_INSTANCE_ID:
            footprints.setdefault(owner, set()).add(key)
    predictions = []
    for instance_id in sorted(state.instances):
        record = state.instances[instance_id]
        if record.is_unknown or not record.category_evidence:
            continue
        dist = probabilities(record.category_evidence)
        category = record.final_category if record.final_category is not None else top_category(dist)
        predictions.append((-dist.get(category, 0.0), instance_id, str(category), footprints.get(instance_id, set())))
    predictions.sort(key=lambda p: p[:2])
    gt_voxels = [set(unpack_keys(gt_instance.keys)) for gt_instance in gt.instances]
    matched_gt: set[str] = set()
    records = []
    for negative_confidence, instance_id, category, voxels in predictions:
        best_iou = 0.0
        best_gt = None
        for gt_instance, truth in zip(gt.instances, gt_voxels):
            if gt_instance.category != category or gt_instance.id in matched_gt:
                continue
            overlap = len(voxels & truth)
            overlap_iou = overlap / (len(voxels) + len(truth) - overlap) if voxels and truth else 0.0
            if overlap_iou > best_iou:
                best_iou = overlap_iou
                best_gt = gt_instance.id
        is_tp = best_gt is not None and best_iou >= config.iou_threshold
        if is_tp:
            matched_gt.add(best_gt)
        records.append(
            MatchRecord(
                instance_id=instance_id,
                category=category,
                confidence=-negative_confidence,
                is_tp=is_tp,
                matched_gt=best_gt if is_tp else None,
                iou=best_iou,
            )
        )
    return records


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
    return pose.apply(point_cam[:, None])[:, 0]


def oracle_backproject_pixels(
    us: np.ndarray,
    vs: np.ndarray,
    depth_raw: np.ndarray,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    max_range: float = 4.0,
) -> np.ndarray:
    """World points of the pixels with valid in-range depth, in input order,
    from camera points stacked as ``(n, 3)`` rows."""
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    depth_raw = np.asarray(depth_raw)
    z = depth_raw.astype(float) * intrinsics.depth_scale
    keep = (depth_raw != 0) & (z <= max_range)
    z = z[keep]
    x = (us[keep] - intrinsics.cx) * z / intrinsics.fx
    y = (vs[keep] - intrinsics.cy) * z / intrinsics.fy
    points_cam = np.stack([x, y, z], axis=1)
    return points_cam @ pose.rotation.T + pose.translation


def oracle_build_opinions(
    frame: Frame, params: ClusteringParams, max_range: float = 4.0, *, voxel_size: float
) -> list[SubjectiveOpinion]:
    """One ``np.nonzero`` and one back-projection per prediction, and one more
    for the valid pixels that no prediction claims."""
    depth, intrinsics, pose = frame.depth, frame.record.intrinsics, frame.record.pose
    valid = (depth != 0) & (depth.astype(float) * intrinsics.depth_scale <= max_range)
    claimed = np.zeros_like(valid, dtype=bool)
    opinions: list[SubjectiveOpinion] = []

    for prediction in frame.predictions:
        claimed |= prediction.mask
        selected = prediction.mask & valid
        if not selected.any():
            continue
        vs, us = np.nonzero(selected)
        points = oracle_backproject_pixels(us, vs, depth[vs, us], intrinsics, pose, max_range)
        filtered = oracle_filter_geometric_opinion(points, params)
        if len(filtered) == 0:
            continue
        opinions.append(
            SubjectiveOpinion(
                points=filtered,
                category=prediction.category,
                confidence=prediction.confidence,
                source_frame=frame.frame_id,
                pixel_bbox=pixel_bbox(prediction.mask),
                voxel_size=voxel_size,
            )
        )

    background = valid & ~claimed
    if background.any():
        vs, us = np.nonzero(background)
        points = oracle_backproject_pixels(us, vs, depth[vs, us], intrinsics, pose, max_range)
        opinions.append(
            SubjectiveOpinion(
                points=points,
                category=UNKNOWN_CATEGORY,
                confidence=1.0,
                source_frame=frame.frame_id,
                pixel_bbox=None,
                voxel_size=voxel_size,
            )
        )
    return opinions


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


def _footprint_cells(state: MapState) -> dict[VoxelKey, dict[int, int]]:
    """Each voxel of some footprint of ``state`` with its counts by instance
    id, read from the footprints one voxel at a time in ascending id order."""
    cells: dict[VoxelKey, dict[int, int]] = {}
    for instance_id in sorted(state.instances):
        record = state.instances[instance_id]
        for key, count in zip(unpack_keys(record.keys), record.counts.tolist()):
            cells.setdefault(key, {})[instance_id] = count
    return cells


def oracle_snapshot_dict(state: MapState) -> dict:
    """The contents of ``state`` as a dict, built cell by cell: the snapshot
    header's fields and a "cells" list of each cell's key, log-odds and
    counts by instance id string, read from the instance footprints."""
    footprint_cells = _footprint_cells(state)
    cells = [
        {
            "key": list(key),
            "log_odds": log_odds,
            "instance_counts": {str(i): c for i, c in footprint_cells.pop(key, {}).items()},
        }
        for key, log_odds in zip(unpack_keys(state.cells.keys), state.cells.log_odds.tolist())
    ]
    assert not footprint_cells, "a footprint voxel is not a cell"
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


def oracle_voxel_category_distribution(
    instance_counts: Mapping[int, int], state
) -> dict[str, float]:
    """Category distribution of one voxel by the law of total probability.

    Instance weights come from the voxel's evidence counts, keyed by instance
    id, and are mixed in the order the counts list them; each instance
    contributes its category distribution scaled by its weight.  The unknown
    instance -- and any instance without category evidence -- contributes
    its full weight to the reserved unknown category.
    """
    weights = probabilities(instance_counts)
    mixed: dict[str, float] = {}
    for instance_id, weight in weights.items():
        record = state.instances[instance_id]
        if record.is_unknown or not record.category_evidence:
            mixed[UNKNOWN_CATEGORY] = mixed.get(UNKNOWN_CATEGORY, 0.0) + weight
            continue
        for category, p in probabilities(record.category_evidence).items():
            mixed[category] = mixed.get(category, 0.0) + weight * p
    return mixed


def validate_distribution(dist: Mapping[str, float], tol: float = 1e-9) -> None:
    """Raise ValueError unless every probability is finite and non-negative
    and they sum to 1 within ``tol``."""
    for key, p in dist.items():
        if p < 0.0 or not math.isfinite(p):
            raise ValueError(f"probability for {key!r} out of range: {p!r}")
    total = sum(dist.values())
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total!r}, expected 1 within {tol}")


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


def oracle_overlap_scores(overlap: int, size_a: int, size_b: int) -> tuple[float, float]:
    """(iou, ios) of one overlap of two sizes, each 0 where its denominator
    is not positive and clamped to 1."""
    union, smaller = size_a + size_b - overlap, min(size_a, size_b)
    score_iou = min(1.0, overlap / union) if union > 0 else 0.0
    score_ios = min(1.0, overlap / smaller) if smaller > 0 else 0.0
    return score_iou, score_ios


def oracle_associate(
    opinions: list[SubjectiveOpinion], state: MapState, config: AssociationConfig
) -> AssociationOutcome:
    """Reference association: each opinion against each candidate on its own,
    the overlap counted with one ``in_sorted`` per (opinion, candidate) pair,
    over the opinion's voxels as :func:`oracle_voxel_counts` keys them."""
    outcome = AssociationOutcome()
    candidates = [
        record
        for instance_id, record in state.instances.items()
        if instance_id != UNKNOWN_INSTANCE_ID and record.voxel_count
    ]
    for index, opinion in enumerate(opinions):
        if opinion.is_unknown:
            outcome.matches.append((index, UNKNOWN_INSTANCE_ID, 0.0, 0.0))
            continue
        voxels = oracle_voxel_counts(opinion, state.voxel_size)
        keys = pack_keys(np.array(list(voxels), dtype=np.int64))
        counts = np.array(list(voxels.values()))
        n_points = len(opinion.points)
        best: tuple[float, float, int] | None = None  # (iou, ios, -id) ordering helper
        for record in candidates:
            if record.keys[0] > keys[-1] or record.keys[-1] < keys[0]:
                continue
            overlap = int(counts[in_sorted(record.keys, keys)].sum())
            score_iou, score_ios = oracle_overlap_scores(overlap, n_points, record.voxel_count)
            if score_iou < config.tau_iou and score_ios < config.tau_ios:
                continue
            candidate = (score_iou, score_ios, -record.id)
            if best is None or candidate > best:
                best = candidate
        if best is None:
            new_id = state.new_instance()
            outcome.spawned.append((index, new_id))
        else:
            outcome.matches.append((index, -best[2], best[0], best[1]))
    return outcome


def oracle_filter_geometric_opinion(points: np.ndarray, params: ClusteringParams) -> np.ndarray:
    """Largest-cluster filter of one point set on its own, with coarse keys
    made distinct row-wise by ``np.unique(axis=0)`` rather than as packed
    scalars, and clustered by :func:`bfs_dbscan`."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    keys = np.floor(points / params.coarse_voxel).astype(np.int64)
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    centers = (unique_keys.astype(float) + 0.5) * params.coarse_voxel
    labels = bfs_dbscan(centers, eps=params.eps, min_pts=params.min_pts)
    if np.all(labels == NOISE):
        return points[:0]
    winner = int(np.argmax(np.bincount(labels[labels != NOISE])))
    return points[(labels == winner)[inverse]]


def oracle_integrate(opinion: SubjectiveOpinion, instance_id: int, state: OracleMap) -> None:
    """Geometric integration one voxel at a time through the OracleMap methods."""
    for key, count in oracle_voxel_counts(opinion, state.voxel_size).items():
        state.add_instance_evidence(key, instance_id, count)
        state.apply_occupancy(key, hit=True)


def oracle_integrate_semantic(opinion: SubjectiveOpinion, instance_id: int, state: OracleMap) -> None:
    """The opinion's confidence added to the instance's category evidence, its
    category registered and its observation logged without a view."""
    record = state.instances[instance_id]
    record.category_evidence[opinion.category] = (
        record.category_evidence.get(opinion.category, 0.0) + opinion.confidence
    )
    if opinion.category not in state.categories:
        state.categories.append(opinion.category)
    record.observations.append(
        Observation(
            frame_id=opinion.source_frame,
            category=opinion.category,
            confidence=opinion.confidence,
            pixel_bbox=opinion.pixel_bbox,
        )
    )


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
        key: scalar_expected_entropy(cell.instance_counts)
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="geometric", values=values, generated_at_frame=state.frames_integrated
    )


def oracle_semantic_entropy_map(state: OracleMap) -> UncertaintyLayer:
    values = {
        key: scalar_shannon_entropy(oracle_voxel_category_distribution(cell.instance_counts, state))
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="semantic", values=values, generated_at_frame=state.frames_integrated
    )


def layer_of(kind: str, values: dict[VoxelKey, float], generated_at_frame: int = 0) -> UncertaintyLayer:
    """A layer holding the dict ``values``, with its keys packed and sorted."""
    keys = sorted(values)
    packed = pack_keys(np.array(keys, dtype=np.int64).reshape(-1, 3))
    return UncertaintyLayer(kind, LayerValues(packed, [values[key] for key in keys]), generated_at_frame)


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
        dist = oracle_voxel_category_distribution(cell.instance_counts, state)
        keys.append(key)
        colors.append(oracle_id_color(category_index.get(top_category(dist), 0)))
    oracle_write_ply(
        ply_path,
        _oracle_voxel_centers(keys, state.voxel_size),
        np.array(colors, dtype=np.uint8).reshape(-1, 3),
    )


def oracle_ray_box_entry(
    origin: np.ndarray, dirs: np.ndarray, box_min: np.ndarray, box_max: np.ndarray
) -> np.ndarray:
    """Entry depth of each ray into the box; +inf where the ray misses."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs
        t_low = (box_min - origin) * inv
        t_high = (box_max - origin) * inv
    t_near = np.nanmax(np.minimum(t_low, t_high), axis=-1)
    t_far = np.nanmin(np.maximum(t_low, t_high), axis=-1)
    entry = np.where((t_near <= t_far) & (t_near > 1e-6), t_near, np.inf)
    return entry


def oracle_ray_box_exit(
    origin: np.ndarray, dirs: np.ndarray, box_min: np.ndarray, box_max: np.ndarray
) -> np.ndarray:
    """Exit depth of each ray out of the box (origin assumed inside)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = 1.0 / dirs
        t_low = (box_min - origin) * inv
        t_high = (box_max - origin) * inv
    t_far = np.nanmin(np.maximum(t_low, t_high), axis=-1)
    return np.where(t_far > 1e-6, t_far, np.inf)


def oracle_render_frame(scene: SyntheticScene, pose: Pose) -> tuple[np.ndarray, np.ndarray]:
    """Render z-depth (meters) and per-pixel winning object index (-1 = room)."""
    dirs, origin = _pixel_rays(scene.intrinsics, pose)
    depth = oracle_ray_box_exit(origin, dirs, scene.room_min, scene.room_max)
    owner = np.full(depth.shape, -1, dtype=int)
    for index, scene_object in enumerate(scene.objects):
        entry = oracle_ray_box_entry(origin, dirs, scene_object.box_min, scene_object.box_max)
        closer = entry < depth
        depth = np.where(closer, entry, depth)
        owner = np.where(closer, index, owner)
    return depth, owner


def oracle_dilate_mask(mask: np.ndarray, pixels: int) -> np.ndarray:
    """The mask after ``pixels`` >= 1 dilations by the 4-connected cross over
    the whole image, pixels beyond its edges counting as unset."""
    return ndimage.binary_dilation(mask, iterations=pixels)


def oracle_voxelize_box_shell(
    box_min: np.ndarray, box_max: np.ndarray, voxel_size: float
) -> set[tuple[int, int, int]]:
    """Voxel keys overlapping the box surface (not its open interior).

    A key is included when its cube touches the closed box but is not
    strictly inside it, matching what surface observations can register.
    """
    lo = np.floor(np.asarray(box_min, dtype=float) / voxel_size).astype(int)
    hi = np.floor(np.asarray(box_max, dtype=float) / voxel_size).astype(int)
    shell = set()
    for i in range(lo[0], hi[0] + 1):
        for j in range(lo[1], hi[1] + 1):
            for k in range(lo[2], hi[2] + 1):
                cube_min = np.array([i, j, k], dtype=float) * voxel_size
                cube_max = cube_min + voxel_size
                interior = np.all(cube_min > box_min) and np.all(cube_max < box_max)
                if not interior:
                    shell.add((i, j, k))
    return shell


def oracle_select_views(record, candidates: list[str], views_per_candidate: int) -> list[Observation]:
    """View selection in two passes: per candidate, the best observation of
    each unused frame up to the budget, then the rest in rank order."""
    views: list[Observation] = []
    for candidate in candidates:
        matching = [obs for obs in record.observations if obs.category == candidate]
        matching.sort(key=lambda obs: (-obs.confidence, obs.frame_id))
        chosen: list = []
        chosen_ids: set[int] = set()
        used_frames: set[int] = set()
        for obs in matching:
            if len(chosen) >= views_per_candidate:
                break
            if obs.frame_id not in used_frames:
                chosen.append(obs)
                chosen_ids.add(id(obs))
                used_frames.add(obs.frame_id)
        if len(chosen) < views_per_candidate:
            for obs in matching:
                if len(chosen) >= views_per_candidate:
                    break
                if id(obs) not in chosen_ids:
                    chosen.append(obs)
                    chosen_ids.add(id(obs))
        views.extend(chosen)
    return views
