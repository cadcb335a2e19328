"""Turn one decoded frame into subjective opinions.

The frame's valid pixels are back-projected to world-frame points once, as
the columns of one ``(3, n)`` array.  Each surviving network prediction
becomes an opinion: the columns of its masked pixels are selected, coarsely
voxelized, and cleaned with density-based clustering so that stray
background points leaking into the 2D mask do not pollute the map.  The
columns of valid pixels not covered by any prediction mask become a single
reserved ``unknown`` opinion, which skips the clustering filter (it is
background by definition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .frames import CameraIntrinsics, Frame, Pose, backproject_pixels, camera_points
from .voxelmap import UNKNOWN_CATEGORY, pack_keys

NOISE = -1


@dataclass
class ClusteringParams:
    """Coarse-grid DBSCAN parameters for geometric opinion filtering."""

    coarse_voxel: float
    eps: float
    min_pts: int

    def __post_init__(self) -> None:
        if self.coarse_voxel <= 0 or self.eps <= 0 or self.min_pts <= 0:
            raise ValueError("clustering parameters must be positive")


@dataclass
class SubjectiveOpinion:
    """One prediction lifted to 3D: filtered points plus category evidence."""

    points: np.ndarray  # (n, 3) world-frame meters
    category: str
    confidence: float
    source_frame: int
    pixel_bbox: tuple[int, int, int, int] | None
    # (voxel_size, (packed voxel keys, point counts)), filled by fusion.opinion_voxel_counts
    # so that association and integration key the points once.
    _voxel_counts: tuple[float, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if len(self.points) == 0:
            raise ValueError("an opinion needs at least one point")

    @property
    def is_unknown(self) -> bool:
        return self.category == UNKNOWN_CATEGORY


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering; returns one label per point, -1 for noise.

    Core points have at least ``min_pts`` neighbors within ``eps`` (inclusive,
    counting the point itself).  Cluster ids follow discovery order over the
    input, so a border point reachable from several clusters deterministically
    joins the lowest cluster id.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, r=eps)
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for seed in range(n):
        if visited[seed] or not core[seed]:
            continue
        # breadth-first expansion from this core point
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


def filter_geometric_opinion(points: np.ndarray, params: ClusteringParams) -> np.ndarray:
    """Keep only the points whose coarse voxel belongs to the largest cluster.

    Points are downsampled to distinct coarse-voxel centers, taken in the
    order of their packed keys, which is (i, j, k) order.  DBSCAN runs on the
    centers, and the winning cluster is the largest one (ties broken by the
    lowest cluster id).  Returns an empty array when every center is noise,
    which the caller treats as a rejected opinion.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("cannot filter an empty point set")
    keys = np.floor(points / params.coarse_voxel).astype(np.int64)
    _, first, inverse = np.unique(pack_keys(keys), return_index=True, return_inverse=True)
    centers = (keys[first].astype(float) + 0.5) * params.coarse_voxel
    labels = dbscan(centers, eps=params.eps, min_pts=params.min_pts)
    if np.all(labels == NOISE):
        return points[:0]
    counts = np.bincount(labels[labels != NOISE])
    winner = int(np.argmax(counts))  # argmax returns the lowest id on ties
    keep_center = labels == winner
    return points[keep_center[inverse]]


def pixel_bbox(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(u_min, v_min, u_max, v_max) of a non-empty boolean mask's set pixels."""
    columns = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    return (int(columns[0]), int(rows[0]), int(columns[-1]), int(rows[-1]))


def build_opinions(
    frame: Frame,
    intrinsics: CameraIntrinsics,
    pose: Pose,
    params: ClusteringParams,
    max_range: float = 4.0,
) -> list[SubjectiveOpinion]:
    """Build one opinion per surviving prediction plus one unknown opinion.

    Prediction masks may overlap; a pixel claimed by several predictions
    contributes to each of them, but never to the unknown opinion.  Opinions
    whose masks cover no valid depth, or whose coarse clusters are all noise,
    are dropped.
    """
    depth = frame.depth.values
    width, height = frame.depth.width, frame.depth.height
    valid = (depth != 0) & (depth.astype(float) * intrinsics.depth_scale <= max_range)
    pixels = np.flatnonzero(valid)
    vs = pixels // width
    us = pixels - vs * width
    raw = depth.ravel()[pixels]
    points, _ = backproject_pixels(us, vs, raw, intrinsics, pose, max_range)
    world = points.T  # C-ordered (3, n): one column per valid pixel

    def selected_points(selected: np.ndarray) -> np.ndarray:
        """(m, 3) world points of the selected valid pixels."""
        if np.count_nonzero(selected) == 1 < len(pixels):
            # numpy transforms a lone point with a matrix-vector product, whose
            # rounding can differ from the frame's matrix product by an ulp;
            # transform it on its own, as its opinion's own pixels would be
            one = np.flatnonzero(selected)
            z = raw[one].astype(float) * intrinsics.depth_scale
            return pose.apply(camera_points(us[one], vs[one], z, intrinsics).T)
        return np.compress(selected, world, axis=1).T

    claimed = np.zeros(len(pixels), dtype=bool)
    opinions: list[SubjectiveOpinion] = []

    for prediction in frame.predictions:
        mask = prediction.mask(width, height)
        selected = mask.ravel()[pixels]
        claimed |= selected
        if not selected.any():
            continue
        filtered = filter_geometric_opinion(selected_points(selected), params)
        if len(filtered) == 0:
            continue
        opinions.append(
            SubjectiveOpinion(
                points=filtered,
                category=prediction.category,
                confidence=prediction.confidence,
                source_frame=frame.frame_id,
                pixel_bbox=pixel_bbox(mask),
            )
        )

    if not claimed.all():
        opinions.append(
            SubjectiveOpinion(
                points=selected_points(~claimed),
                category=UNKNOWN_CATEGORY,
                confidence=1.0,
                source_frame=frame.frame_id,
                pixel_bbox=None,
            )
        )
    return opinions
