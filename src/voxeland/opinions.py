"""Turn one decoded frame into subjective opinions.

The frame's valid pixels are back-projected to world-frame points once, as
the columns of one ``(3, n)`` array.  Each surviving network prediction
becomes an opinion of its masked pixels' points, cleaned so that stray
background points leaking into the 2D mask do not pollute the map: one
DBSCAN per frame clusters the coarse-voxel centers of every prediction, each
prediction a group of its own, and each keeps its largest cluster.  The
valid pixels no prediction mask covers become a single reserved ``unknown``
opinion, which is not clustered (it is background by definition).  Each
opinion's points are keyed once, as it is built, at the map's voxel size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .frames import Frame, backproject_pixels
from .voxelmap import UNKNOWN_CATEGORY, pack_keys, points_to_keys, unpack_key_array

NOISE = -1


@dataclass
class ClusteringParams:
    """Coarse-grid DBSCAN parameters for geometric opinion filtering.

    ``origin`` names the setting the coarse voxel came from, for errors.
    """

    coarse_voxel: float
    eps: float
    min_pts: int
    origin: str = "coarse_voxel"

    def __post_init__(self) -> None:
        if self.coarse_voxel <= 0 or self.eps <= 0 or self.min_pts <= 0:
            raise ValueError("clustering parameters must be positive")
        # coarse keys span at most 2^21 voxels per axis, so the squared
        # distances DBSCAN takes stay below 3 * (2^21 * coarse_voxel)^2 + eps^2
        span = float(1 << 21) * self.coarse_voxel
        if not math.isfinite(3.0 * span * span + self.eps * self.eps):
            raise ValueError(
                f"coarse voxel {self.coarse_voxel} ({self.origin}) or DBSCAN radius {self.eps} is too large:"
                " squared distances between coarse voxel centers overflow"
            )


@dataclass
class SubjectiveOpinion:
    """One prediction lifted to 3D: filtered points plus category evidence."""

    points: np.ndarray  # (n, 3) world-frame meters
    category: str
    confidence: float
    source_frame: int
    pixel_bbox: tuple[int, int, int, int] | None
    voxel_size: float
    keys: np.ndarray = field(init=False, repr=False, compare=False)  # sorted packed keys of the points' voxels
    counts: np.ndarray = field(init=False, repr=False, compare=False)  # the number of points in each

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if len(self.points) == 0:
            raise ValueError("an opinion needs at least one point")
        packed = pack_keys(points_to_keys(self.points, self.voxel_size))
        self.keys, self.counts = np.unique(packed, return_counts=True)

    @property
    def is_unknown(self) -> bool:
        return self.category == UNKNOWN_CATEGORY


def dbscan(points: np.ndarray, eps: float, min_pts: int, groups: np.ndarray | None = None) -> np.ndarray:
    """Density-based clustering; returns one label per point, -1 for noise.

    Neighbours lie within ``eps`` (inclusive) and in the same one of
    ``groups``, if given.  A point with at least ``min_pts`` neighbours,
    itself counted, is core.  Clusters are the connected components of the
    core points, numbered in the order of their smallest core point, and a
    border point joins the lowest cluster among its core neighbours.  So a
    group of consecutive points gets consecutive ids, in the order a call on
    the group alone gives them.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(points)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    if groups is not None:
        pairs = pairs[groups[pairs[:, 0]] == groups[pairs[:, 1]]]
    ends, others = np.concatenate([pairs, pairs[:, ::-1]]).T  # each pair both ways
    core = np.bincount(ends, minlength=n) + 1 >= min_pts
    linked = core[ends] & core[others]
    graph = coo_matrix((np.ones(np.count_nonzero(linked)), (ends[linked], others[linked])), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    _, smallest, cluster = np.unique(component[core], return_index=True, return_inverse=True)
    labels[core] = np.argsort(np.argsort(smallest))[cluster]
    border = ~core[ends] & core[others]
    lowest = np.full(n, n)
    np.minimum.at(lowest, ends[border], labels[others[border]])
    return np.where(lowest < n, lowest, labels)


def filter_geometric_opinions(point_sets: list[np.ndarray], params: ClusteringParams) -> list[np.ndarray]:
    """Keep, of each ``(m, 3)`` point set, the points whose coarse voxel is in
    the set's largest cluster; ties go to the lowest cluster id.

    Each set's distinct coarse-voxel centers are taken in the order of their
    packed keys, which is (i, j, k) order, and one DBSCAN clusters the
    centers of every set, each set a group.  A set whose centers are all
    noise comes back empty, which the caller treats as a rejected opinion.
    """
    if not point_sets:
        return []
    coarse, inverses = [], []
    for points in point_sets:
        try:
            keys = pack_keys(points_to_keys(points, params.coarse_voxel))
        except ValueError as exc:
            raise ValueError(f"coarse voxel {params.coarse_voxel} ({params.origin}): {exc}") from None
        distinct, inverse = np.unique(keys, return_inverse=True)
        coarse.append(unpack_key_array(distinct))
        inverses.append(inverse)
    counts = [len(keys) for keys in coarse]
    groups = np.repeat(np.arange(len(point_sets)), counts)
    centers = (np.concatenate(coarse).astype(float) + 0.5) * params.coarse_voxel
    labels = dbscan(centers, params.eps, params.min_pts, groups)
    members = np.flatnonzero(labels != NOISE)
    _, first_members, sizes = np.unique(labels[members], return_index=True, return_counts=True)
    cluster_groups = groups[members[first_members]]
    # by group, then by descending size; the stable sort keeps ties in id order
    ranked = np.lexsort((-sizes, cluster_groups))
    _, best = np.unique(cluster_groups[ranked], return_index=True)
    kept = np.isin(labels, ranked[best])
    return [
        points[set_kept[inverse]]
        for points, set_kept, inverse in zip(point_sets, np.split(kept, np.cumsum(counts)[:-1]), inverses)
    ]


def pixel_bbox(mask: np.ndarray) -> tuple[int, int, int, int]:
    """(u_min, v_min, u_max, v_max) of a non-empty boolean mask's set pixels."""
    columns = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    return (int(columns[0]), int(rows[0]), int(columns[-1]), int(rows[-1]))


def build_opinions(
    frame: Frame, params: ClusteringParams, max_range: float = 4.0, *, voxel_size: float
) -> list[SubjectiveOpinion]:
    """Build one opinion per surviving prediction plus one unknown opinion, keyed at ``voxel_size``.

    The camera is the frame record's intrinsics and pose.  Prediction masks
    may overlap; a pixel claimed by several predictions contributes to each
    of them, but never to the unknown opinion.  Opinions whose masks cover no
    valid depth, or whose coarse clusters are all noise, are dropped.  A
    mask of another shape than the depth image is a ValueError.
    """
    depth, intrinsics, pose = frame.depth, frame.record.intrinsics, frame.record.pose
    width = depth.shape[1]
    valid = (depth != 0) & (depth.astype(float) * intrinsics.depth_scale <= max_range)
    pixels = np.flatnonzero(valid)
    vs = pixels // width
    us = pixels - vs * width
    raw = depth.ravel()[pixels]
    world = backproject_pixels(us, vs, raw, intrinsics, pose)  # one column per valid pixel

    def selected_points(selected: np.ndarray) -> np.ndarray:
        """(m, 3) world points of the selected valid pixels."""
        if np.count_nonzero(selected) == 1 < len(pixels):
            # numpy transforms a lone point with a matrix-vector product, whose
            # rounding can differ from the frame's matrix product by an ulp;
            # transform it on its own, as its opinion's own pixels would be
            one = np.flatnonzero(selected)
            return backproject_pixels(us[one], vs[one], raw[one], intrinsics, pose).T
        return np.compress(selected, world, axis=1).T

    claimed = np.zeros(len(pixels), dtype=bool)
    masked = []  # (prediction, pixel bbox, points) of each prediction covering valid depth
    for prediction in frame.predictions:
        if prediction.mask.shape != depth.shape:
            raise ValueError(f"a {prediction.category} mask is {prediction.mask.shape}, the depth {depth.shape}")
        selected = prediction.mask.ravel()[pixels]
        claimed |= selected
        if selected.any():
            masked.append((prediction, pixel_bbox(prediction.mask), selected_points(selected)))

    unknown = None if claimed.all() else selected_points(~claimed)
    # freed before the opinions key their points: keyed beside them, 640x480 frames took 2-3 ms in page faults
    del pixels, vs, us, raw, world
    filtered = filter_geometric_opinions([points for _, _, points in masked], params)
    opinions = [
        SubjectiveOpinion(points, prediction.category, prediction.confidence, frame.frame_id, bbox, voxel_size)
        for (prediction, bbox, _), points in zip(masked, filtered)
        if len(points)
    ]
    if unknown is not None:
        opinions.append(SubjectiveOpinion(unknown, UNKNOWN_CATEGORY, 1.0, frame.frame_id, None, voxel_size))
    return opinions
