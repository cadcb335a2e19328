"""Slow, independent reference implementations used only by the tests.

These deliberately avoid the algorithms used by the package: the digamma
oracle sums the convergent series term by term with an analytic tail bound,
clustering is a full O(n^2) pairwise construction, average precision is
integrated directly from the precision-recall points, and map refinement
rebuilds every footprint and scores every instance pair after each merge.
Overlap scores, coarse-voxel filtering and geometric integration key every
point as a tuple on its own, without packed keys.  The entropy layers and
the PLY exports compute every cell on its own and format every vertex with
its own f-string.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from voxeland.evidence import NoEvidenceError, expected_entropy, shannon_entropy
from voxeland.export import layer_h_max

from voxeland.fusion import (
    AssociationConfig,
    MergeEvent,
    _iou_from_counts,
    _ios_from_counts,
    _merge_instances,
)
from voxeland.opinions import NOISE, ClusteringParams, SubjectiveOpinion, dbscan
from voxeland.uncertainty import UncertaintyLayer, voxel_category_distribution
from voxeland.voxelmap import UNKNOWN_INSTANCE_ID, InstanceRecord, MapState, VoxelKey

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


def _oracle_pair_scores(
    footprint_a: set[VoxelKey], footprint_b: set[VoxelKey]
) -> tuple[float, float]:
    overlap = len(footprint_a & footprint_b)
    size_a, size_b = len(footprint_a), len(footprint_b)
    return (
        _iou_from_counts(overlap, size_a, size_b),
        _ios_from_counts(overlap, size_a, size_b),
    )


def oracle_refine(state: MapState, config: AssociationConfig) -> list[MergeEvent]:
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
                    _merge_instances(state, keep, retire, footprints[retire])
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


def intersection_count(
    opinion: SubjectiveOpinion, instance: InstanceRecord, state: MapState
) -> int:
    """Number of opinion points lying in voxels where the instance has evidence."""
    total = 0
    for point in opinion.points:
        cell = state.cells.get(_point_key(point, state.voxel_size))
        if cell is not None and cell.instance_counts.get(instance.id, 0) > 0:
            total += 1
    return total


def iou(opinion: SubjectiveOpinion, instance: InstanceRecord, state: MapState) -> float:
    """overlap / (points + instance voxels - overlap), clamped to 1."""
    overlap = intersection_count(opinion, instance, state)
    denominator = len(opinion.points) + instance.voxel_count - overlap
    return min(1.0, overlap / denominator) if denominator > 0 else 0.0


def ios(opinion: SubjectiveOpinion, instance: InstanceRecord, state: MapState) -> float:
    """overlap / min(points, instance voxels), clamped to 1."""
    overlap = intersection_count(opinion, instance, state)
    smaller = min(len(opinion.points), instance.voxel_count)
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


def oracle_integrate(opinion: SubjectiveOpinion, instance_id: int, state: MapState) -> None:
    """Geometric integration one voxel at a time through the MapState methods."""
    for key, count in oracle_voxel_counts(opinion, state.voxel_size).items():
        state.add_instance_evidence(key, instance_id, count)
        state.apply_occupancy(key, hit=True)


def oracle_argmax_owner(instance_counts: dict[int, int]) -> int:
    return max(sorted(instance_counts), key=lambda i: instance_counts[i])


def oracle_geometric_entropy_map(state: MapState) -> UncertaintyLayer:
    values = {
        key: expected_entropy(cell.instance_counts)
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="geometric", values=values, generated_at_frame=state.frames_integrated
    )


def oracle_semantic_entropy_map(state: MapState) -> UncertaintyLayer:
    values = {
        key: shannon_entropy(voxel_category_distribution(cell, state))
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


def oracle_export_instance_map(state: MapState, ply_path: Path | str) -> None:
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


def oracle_export_semantic_map(state: MapState, ply_path: Path | str) -> None:
    category_index = {label: i for i, label in enumerate(state.categories)}
    keys = []
    colors = []
    for key in sorted(state.cells):
        cell = state.cells[key]
        if not cell.instance_counts:
            continue
        try:
            dist = voxel_category_distribution(cell, state)
        except NoEvidenceError:
            continue
        keys.append(key)
        colors.append(oracle_id_color(category_index.get(str(dist.argmax()), 0)))
    oracle_write_ply(
        ply_path,
        _oracle_voxel_centers(keys, state.voxel_size),
        np.array(colors, dtype=np.uint8).reshape(-1, 3),
    )
