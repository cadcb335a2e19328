import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.frames import (
    CameraIntrinsics,
    Frame,
    FrameRecord,
    Pose,
    PredictionInstance,
    backproject_pixels,
    load_frame,
    load_manifest,
)
from voxeland.opinions import (
    UNKNOWN_CATEGORY,
    ClusteringParams,
    SubjectiveOpinion,
    build_opinions,
    dbscan,
    filter_geometric_opinions,
    pixel_bbox,
)
from voxeland.synthetic import NoiseSpec, SceneObject, SyntheticScene, generate_synthetic, orbit_trajectory

from oracles import (
    backproject,
    bfs_dbscan,
    brute_force_dbscan,
    canonical_clustering,
    oracle_build_opinions,
    oracle_filter_geometric_opinion,
    oracle_voxel_counts,
    unpack_keys,
)

PARAMS = ClusteringParams(coarse_voxel=0.08, eps=0.08 * 1.8, min_pts=4)
VOXEL = 0.02

# (i, j, k) coarse cell and (u, v, w) position inside it
COARSE_POINT = st.tuples(
    st.integers(-4, 3), st.integers(-4, 3), st.integers(-2, 1),
    st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 0.999),
)


def make_frame(depth, predictions, fx=100.0, fy=100.0):
    height, width = depth.shape
    intr = CameraIntrinsics(
        fx=fx, fy=fy, cx=width / 2, cy=height / 2, width=width, height=height, depth_scale=0.001
    )
    record = FrameRecord(
        frame_id=0,
        depth_path=None,
        predictions_path=None,
        pose=Pose(rotation=np.eye(3), translation=np.zeros(3)),
        intrinsics=intr,
    )
    return Frame(
        record=record,
        depth=depth,
        predictions=predictions,
    ), intr, record.pose


class TestDbscan:
    def test_tight_group_is_one_cluster(self):
        rng = np.random.default_rng(0)
        points = rng.normal(0, 0.005, (10, 3))
        labels = dbscan(points, eps=0.1, min_pts=4)
        assert set(labels) == {0}

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0, 0.01, (10, 3))
        blob_b = rng.normal(0, 0.01, (10, 3)) + np.array([10.0, 0, 0])
        points = np.vstack([blob_a, blob_b])
        labels = dbscan(points, eps=0.1, min_pts=4)
        assert set(labels) == {0, 1}
        assert len(set(labels[:10])) == 1 and len(set(labels[10:])) == 1
        expected = brute_force_dbscan(points, 0.1, 4)
        assert np.array_equal(canonical_clustering(labels), canonical_clustering(expected))

    def test_isolated_point_is_noise(self):
        points = np.array([[0.0, 0.0, 0.0]])
        assert dbscan(points, eps=0.1, min_pts=4).tolist() == [-1]

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            points = rng.uniform(-1, 1, (n, 3))
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 8))
            mine = dbscan(points, eps, min_pts)
            reference = brute_force_dbscan(points, eps, min_pts)
            assert np.array_equal(
                canonical_clustering(mine), canonical_clustering(reference)
            ), f"n={n} eps={eps} min_pts={min_pts}"
            # the filter's tie-break reads the ids, so they must match exactly
            assert np.array_equal(mine, reference), f"n={n} eps={eps} min_pts={min_pts}"
            assert np.array_equal(mine, bfs_dbscan(points, eps, min_pts)), f"n={n} eps={eps} min_pts={min_pts}"

    def test_permutation_invariance_up_to_renaming(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(-0.5, 0.5, (120, 3))
        labels = dbscan(points, eps=0.15, min_pts=4)
        perm = rng.permutation(len(points))
        permuted_labels = dbscan(points[perm], eps=0.15, min_pts=4)
        # compare partitions: same noise set, same grouping
        assert np.array_equal(labels[perm] == -1, permuted_labels == -1)
        for cluster in set(permuted_labels) - {-1}:
            members = labels[perm][permuted_labels == cluster]
            assert len(set(members.tolist())) == 1


def per_group_labels(points, eps, min_pts, sizes):
    """Each run of ``sizes`` consecutive points clustered by a call of its
    own, its cluster ids shifted past those of the runs before it."""
    labels, offset = [], 0
    for run in np.split(points, np.cumsum(sizes)[:-1]):
        run_labels = dbscan(run, eps, min_pts)
        labels.append(np.where(run_labels == -1, -1, run_labels + offset))
        offset += int(run_labels.max(initial=-1)) + 1
    return np.concatenate([np.full(0, -1), *labels])


def grouped_labels(points, eps, min_pts, sizes):
    return dbscan(points, eps, min_pts, groups=np.repeat(np.arange(len(sizes)), sizes))


class TestGroupedDbscan:
    """One call over consecutive runs of points, each run a group, against
    one call per run."""

    def test_matches_per_group_calls_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            sizes = rng.integers(1, 60, size=int(rng.integers(1, 6)))
            sizes[rng.random(len(sizes)) < 0.2] = 1
            points = rng.uniform(-1, 1, (int(sizes.sum()), 3))
            # groups overlap in space, so one tree over all of them finds pairs across groups
            eps = float(rng.uniform(0.05, 0.6))
            min_pts = int(rng.integers(1, 8))
            expected = per_group_labels(points, eps, min_pts, sizes)
            assert np.array_equal(grouped_labels(points, eps, min_pts, sizes), expected), (
                f"sizes={sizes.tolist()} eps={eps} min_pts={min_pts}"
            )

    @pytest.mark.parametrize("min_pts", [1, 2, 4])
    def test_groups_of_one_point(self, min_pts):
        points = np.zeros((5, 3))
        points[3:] = 0.01
        labels = grouped_labels(points, 0.1, min_pts, [1] * 5)
        assert np.array_equal(labels, per_group_labels(points, 0.1, min_pts, [1] * 5))
        assert labels.tolist() == ([0, 1, 2, 3, 4] if min_pts == 1 else [-1] * 5)

    def test_min_pts_one_makes_every_point_core(self):
        rng = np.random.default_rng(44)
        points = rng.uniform(-1, 1, (80, 3))
        sizes = [30, 1, 49]
        labels = grouped_labels(points, 0.2, 1, sizes)
        assert np.array_equal(labels, per_group_labels(points, 0.2, 1, sizes))
        assert (labels != -1).all()

    def test_identical_points_in_two_groups_are_not_neighbours(self):
        # three points per group; with the copies as neighbours each would
        # have six and be core, on their own they are noise
        blob = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, 0.05, 0.0]])
        points = np.vstack([blob, blob])
        assert grouped_labels(points, 0.1, 4, [3, 3]).tolist() == [-1] * 6
        assert dbscan(points, 0.1, 4).tolist() == [0] * 6
        assert grouped_labels(points, 0.1, 3, [3, 3]).tolist() == [0, 0, 0, 1, 1, 1]

    def test_zero_points(self):
        labels = dbscan(np.zeros((0, 3)), 0.1, 4, groups=np.zeros(0, dtype=int))
        assert labels.shape == (0,)


def keep_largest(points, params=PARAMS):
    """The frame filter on one point set."""
    return filter_geometric_opinions([points], params)[0]


class TestFilterGeometricOpinion:
    def test_main_blob_survives_strays(self):
        rng = np.random.default_rng(2)
        blob = rng.uniform(0, 0.3, (500, 3))
        strays = rng.uniform(0, 0.05, (5, 3)) + np.array([2.0, 2.0, 2.0])
        points = np.vstack([blob, strays])
        kept = keep_largest(points)
        assert len(kept) == 500
        assert np.all(kept.max(axis=0) < 1.0)

    def test_single_blob_fully_retained(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 0.2, (200, 3))
        kept = keep_largest(points)
        assert len(kept) == 200

    def test_all_noise_rejected(self):
        points = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert len(keep_largest(points)) == 0

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-1, 1, (300, 3))
        kept = keep_largest(points)
        input_rows = {tuple(row) for row in points}
        assert all(tuple(row) in input_rows for row in kept)

    def test_permutation_invariant_as_a_set(self):
        rng = np.random.default_rng(5)
        points = np.vstack(
            [rng.uniform(0, 0.3, (80, 3)), rng.uniform(0, 0.1, (20, 3)) + 3.0]
        )
        kept_a = {tuple(r) for r in keep_largest(points)}
        kept_b = {tuple(r) for r in keep_largest(points[rng.permutation(len(points))])}
        assert kept_a == kept_b

    @given(
        st.lists(COARSE_POINT, min_size=1, max_size=120),
        st.lists(COARSE_POINT, min_size=1, max_size=30),
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_unique_filter(self, scattered, blob, shift):
        # scattered points around the origin, so negative keys and adjacent
        # clusters are common, plus a blob and a shifted copy of it, whose
        # equal-sized clusters tie and leave the winner to center order
        copy = [(i + shift[0], j + shift[1], k + shift[2], u, v, w) for i, j, k, u, v, w in blob]
        points = np.array(
            [
                [(i + u) * PARAMS.coarse_voxel, (j + v) * PARAMS.coarse_voxel, (k + w) * PARAMS.coarse_voxel]
                for i, j, k, u, v, w in scattered + blob + copy
            ]
        )
        kept = keep_largest(points)
        expected = oracle_filter_geometric_opinion(points, PARAMS)
        assert kept.shape == expected.shape
        assert np.array_equal(kept, expected)

    @given(
        st.lists(st.lists(COARSE_POINT, min_size=1, max_size=60), min_size=1, max_size=5),
        st.sampled_from([1, 2, 4]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sets_filtered_as_one_at_a_time(self, sets, min_pts, data):
        # sets are drawn over the same few coarse cells, and some are copies of
        # others, so centers of different sets coincide or neighbour each other
        copies = [sets[data.draw(st.integers(0, len(sets) - 1))] for _ in range(data.draw(st.integers(0, 2)))]
        params = ClusteringParams(coarse_voxel=PARAMS.coarse_voxel, eps=PARAMS.eps, min_pts=min_pts)
        point_sets = [
            np.array([[(i + u) * params.coarse_voxel, (j + v) * params.coarse_voxel, (k + w) * params.coarse_voxel]
                      for i, j, k, u, v, w in points])
            for points in sets + copies
        ]
        kept = filter_geometric_opinions(point_sets, params)
        assert len(kept) == len(point_sets)
        for points, set_kept in zip(point_sets, kept):
            expected = oracle_filter_geometric_opinion(points, params)
            assert set_kept.shape == expected.shape
            assert set_kept.tobytes() == expected.tobytes()

    def test_no_sets(self):
        assert filter_geometric_opinions([], PARAMS) == []

    def test_largest_coarse_voxel_clusters_the_whole_packable_range(self):
        """At the largest coarse voxel the parameters accept, DBSCAN runs
        over centers at both ends of the packable range (two clusters of one
        point, the first kept); a coarse voxel one step larger, or a radius
        whose square overflows, is refused naming the coarse voxel and its
        origin."""
        low, high = 1e147, 1e148
        while np.nextafter(low, high) < high:
            middle = low + (high - low) / 2
            try:
                ClusteringParams(middle, 1.8 * middle, 1)
                low = middle
            except ValueError:
                high = middle
        points = np.array([[-(2.0**20) * low] * 3, [(2.0**20 - 0.5) * low] * 3])
        assert [len(kept) for kept in filter_geometric_opinions([points], ClusteringParams(low, 1.8 * low, 1))] == [1]
        for coarse, eps in [(high, 1.8 * high), (0.08, 1e155)]:
            with pytest.raises(ValueError, match=r"coarse voxel .* \(4 x voxel_size\) .* overflow"):
                ClusteringParams(coarse, eps, 1, origin="4 x voxel_size")

    def test_coarse_voxel_outside_the_packable_range_is_named(self):
        with pytest.raises(ValueError, match=r"^coarse voxel 1e-30 \(coarse_voxel\): .*outside \[-2\^20, 2\^20\)"):
            filter_geometric_opinions([np.ones((4, 3))], ClusteringParams(1e-30, 1.8e-30, 1))


def nonzero_bbox(mask):
    """The bbox as build_opinions computed it from a full np.nonzero."""
    vs, us = np.nonzero(mask)
    return (int(us.min()), int(vs.min()), int(us.max()), int(vs.max()))


class TestPixelBbox:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.floats(0.001, 1.0), st.integers(0, 2**32 - 1)
    )
    def test_random_masks(self, height, width, density, seed):
        mask = np.random.default_rng(seed).random((height, width)) < density
        if not mask.any():
            mask[height // 2, width // 2] = True
        assert pixel_bbox(mask) == nonzero_bbox(mask)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.data())
    def test_single_pixel_masks(self, height, width, data):
        v = data.draw(st.sampled_from([0, height - 1, data.draw(st.integers(0, height - 1))]))
        u = data.draw(st.sampled_from([0, width - 1, data.draw(st.integers(0, width - 1))]))
        mask = np.zeros((height, width), dtype=bool)
        mask[v, u] = True
        assert pixel_bbox(mask) == nonzero_bbox(mask) == (u, v, u, v)

    @pytest.mark.parametrize(
        "region",
        [np.s_[:, :], np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1], np.s_[0, -1], np.s_[-3:, :2]],
    )
    def test_masks_touching_edges(self, region):
        mask = np.zeros((48, 64), dtype=bool)
        mask[region] = True
        mask[20, 30] = True
        assert pixel_bbox(mask) == nonzero_bbox(mask)


class TestBuildOpinions:
    def test_two_predictions_plus_background(self):
        depth = np.full((40, 40), 1000, dtype=np.uint16)
        mask_a = np.zeros((40, 40), dtype=bool)
        mask_a[5:15, 5:15] = True
        mask_b = np.zeros((40, 40), dtype=bool)
        mask_b[25:35, 25:35] = True
        frame, intr, pose = make_frame(
            depth,
            [
                PredictionInstance("chair", 0.9, mask_a),
                PredictionInstance("table", 0.8, mask_b),
            ],
        )
        opinions = build_opinions(frame, PARAMS, voxel_size=VOXEL)
        assert len(opinions) == 3
        assert [o.category for o in opinions] == ["chair", "table", UNKNOWN_CATEGORY]
        assert opinions[0].pixel_bbox == (5, 5, 14, 14)
        assert opinions[2].pixel_bbox is None

    @pytest.mark.parametrize("shape", [(20, 21), (21, 20), (400,)])
    def test_mask_of_another_shape_than_the_depth_rejected(self, shape):
        depth = np.full((20, 20), 1000, dtype=np.uint16)
        frame, _, _ = make_frame(depth, [PredictionInstance("chair", 0.9, np.ones(shape, dtype=bool))])
        with pytest.raises(ValueError, match=r"a chair mask is \(.*\), the depth \(20, 20\)"):
            build_opinions(frame, PARAMS, voxel_size=VOXEL)

    def test_invalid_depth_prediction_dropped(self):
        depth = np.full((20, 20), 1000, dtype=np.uint16)
        depth[:10, :10] = 0
        mask = np.zeros((20, 20), dtype=bool)
        mask[:10, :10] = True
        frame, intr, pose = make_frame(depth, [PredictionInstance("chair", 0.9, mask)])
        opinions = build_opinions(frame, PARAMS, voxel_size=VOXEL)
        assert [o.category for o in opinions] == [UNKNOWN_CATEGORY]
        # background pixel count: everything valid and unclaimed
        assert len(opinions[0].points) == 20 * 20 - 100

    def test_mask_leak_onto_far_wall_removed(self):
        # object at 1 m in the image center, wall at 3 m; the mask spills onto
        # a small wall patch beside the object, which must be filtered out.
        depth = np.full((60, 60), 3000, dtype=np.uint16)
        depth[15:45, 15:45] = 1000
        mask = np.zeros((60, 60), dtype=bool)
        mask[15:45, 15:45] = True
        mask[20:30, 45:49] = True  # leak: 10x4 px on the wall
        frame, intr, pose = make_frame(depth, [PredictionInstance("box", 0.9, mask)])
        opinions = build_opinions(frame, PARAMS, voxel_size=VOXEL)
        semantic = [o for o in opinions if not o.is_unknown]
        assert len(semantic) == 1
        assert semantic[0].points[:, 2].max() < 1.5, "wall points must not survive"
        assert len(semantic[0].points) == 900

    def test_points_backproject_from_own_pixels_and_sets_disjoint(self):
        depth = np.full((30, 30), 2000, dtype=np.uint16)
        mask_a = np.zeros((30, 30), dtype=bool)
        mask_a[2:12, 2:12] = True
        mask_b = np.zeros((30, 30), dtype=bool)
        mask_b[8:18, 8:18] = True  # overlaps mask_a
        frame, intr, pose = make_frame(
            depth,
            [
                PredictionInstance("a", 0.9, mask_a),
                PredictionInstance("b", 0.9, mask_b),
            ],
        )
        opinions = build_opinions(frame, PARAMS, voxel_size=VOXEL)
        unknown = next(o for o in opinions if o.is_unknown)
        semantic = [o for o in opinions if not o.is_unknown]
        claimed_points = {tuple(p) for o in semantic for p in o.points}
        unknown_points = {tuple(p) for p in unknown.points}
        assert claimed_points.isdisjoint(unknown_points)
        # every point corresponds to exactly one pixel's back-projection
        all_pixel_points = set()
        for v in range(30):
            for u in range(30):
                point = backproject(u, v, 2000, intr, pose)
                all_pixel_points.add(tuple(np.round(point, 12)))
        for o in opinions:
            for p in o.points:
                assert tuple(np.round(p, 12)) in all_pixel_points

    def test_empty_frame_yields_nothing(self):
        depth = np.zeros((10, 10), dtype=np.uint16)
        frame, intr, pose = make_frame(depth, [])
        assert build_opinions(frame, PARAMS, voxel_size=VOXEL) == []

    def test_voxel_size_is_keyword_only(self):
        """A call that passes the voxel size where max_range goes, or leaves
        it out, is a TypeError rather than a map keyed at the wrong size."""
        frame, intr, pose = make_frame(np.full((10, 10), 1000, dtype=np.uint16), [])
        with pytest.raises(TypeError):
            build_opinions(frame, PARAMS, 4.0, VOXEL)
        with pytest.raises(TypeError):
            build_opinions(frame, PARAMS, VOXEL)
        [unknown] = build_opinions(frame, PARAMS, 4.0, voxel_size=VOXEL)
        assert unknown.voxel_size == VOXEL

    def test_opinion_requires_points(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion(
                points=np.zeros((0, 3)), category="x", confidence=0.5, source_frame=0, pixel_bbox=None,
                voxel_size=VOXEL,
            )

    @pytest.mark.parametrize("confidence", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_opinion_confidence_outside_zero_to_one_rejected(self, confidence):
        """A confidence becomes category evidence mass, which must lie in (0, 1]."""
        with pytest.raises(ValueError, match=r"confidence must be in \(0, 1\]"):
            SubjectiveOpinion(
                points=np.zeros((1, 3)), category="x", confidence=confidence, source_frame=0, pixel_bbox=None,
                voxel_size=VOXEL,
            )


def rotation_about(axis, angle):
    axis = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * cross + (1 - math.cos(angle)) * cross @ cross


TILTED = Pose(rotation=rotation_about([0.3, -1.0, 0.6], 2.1), translation=np.array([1.37, -0.45, 1.1]))


def posed_frame(depth, masks, pose=TILTED, fx=90.0):
    height, width = depth.shape
    intr = CameraIntrinsics(
        fx=fx, fy=fx * 1.1, cx=(width - 1) / 2, cy=height / 3, width=width, height=height, depth_scale=0.001
    )
    record = FrameRecord(frame_id=7, depth_path=None, predictions_path=None, pose=pose, intrinsics=intr)
    predictions = [
        PredictionInstance(f"c{index % 3}", 0.25 + 0.125 * index, mask)
        for index, mask in enumerate(masks)
    ]
    return Frame(record=record, depth=depth, predictions=predictions), intr, pose


def assert_same_opinions(opinions, expected):
    assert len(opinions) == len(expected)
    for opinion, oracle in zip(opinions, expected):
        assert opinion.points.shape == oracle.points.shape
        # equal bits, so -0.0 and 0.0 differ and no tolerance is allowed
        assert opinion.points.tobytes() == oracle.points.tobytes()
        assert opinion.category == oracle.category
        assert opinion.confidence == oracle.confidence
        assert opinion.source_frame == oracle.source_frame
        assert opinion.pixel_bbox == oracle.pixel_bbox
        assert opinion.voxel_size == oracle.voxel_size
        voxels = list(zip(unpack_keys(opinion.keys), opinion.counts.tolist()))
        assert voxels == list(oracle_voxel_counts(oracle, oracle.voxel_size).items())


def box(shape, rows, columns):
    mask = np.zeros(shape, dtype=bool)
    mask[rows, columns] = True
    return mask


def two_planes(shape=(30, 40), near=1200, far=2600):
    depth = np.full(shape, far, dtype=np.uint16)
    depth[5:20, 8:30] = near
    return depth


def case_overlapping_masks():
    depth = two_planes()
    masks = [box(depth.shape, slice(4, 21), slice(6, 31)), box(depth.shape, slice(10, 28), slice(20, 38))]
    assert (masks[0] & masks[1]).any()
    return depth, masks, 4.0, ["c0", "c1", UNKNOWN_CATEGORY], None


def case_mask_without_valid_depth():
    depth = two_planes()
    depth[20:, :10] = 0
    masks = [box(depth.shape, slice(22, 30), slice(0, 9)), box(depth.shape, slice(5, 20), slice(8, 30))]
    return depth, masks, 4.0, ["c1", UNKNOWN_CATEGORY], 30 * 40 - 10 * 10 - 15 * 22


def case_all_noise_clusters():
    depth = two_planes()
    depth[0, 0], depth[29, 39] = 900, 3500
    mask = np.zeros(depth.shape, dtype=bool)
    mask[0, 0] = mask[29, 39] = True  # one coarse center each, below min_pts
    return depth, [mask], 4.0, [UNKNOWN_CATEGORY], 30 * 40 - 2


def case_no_prediction():
    return two_planes(), [], 4.0, [UNKNOWN_CATEGORY], 30 * 40


def case_every_valid_pixel_claimed():
    depth = two_planes()
    depth[:, 35:] = 0
    masks = [box(depth.shape, slice(5, 20), slice(8, 30)), box(depth.shape, slice(None), slice(0, 35))]
    return depth, masks, 4.0, ["c0", "c1"], None


def case_no_valid_pixel():
    depth = np.zeros((30, 40), dtype=np.uint16)
    depth[:, 20:] = 5000  # beyond max_range
    return depth, [box(depth.shape, slice(5, 20), slice(8, 30))], 4.0, [], None


def case_depth_beyond_max_range():
    depth = two_planes(near=1200, far=2600)
    masks = [box(depth.shape, slice(5, 12), slice(0, 40))]
    # only the near plane is in range; the mask claims 7 of its 15 rows
    return depth, masks, 2.0, ["c0", UNKNOWN_CATEGORY], 8 * 22


LISTED_CASES = {
    "overlapping-masks": case_overlapping_masks,
    "mask-without-valid-depth": case_mask_without_valid_depth,
    "all-noise-clusters": case_all_noise_clusters,
    "no-prediction": case_no_prediction,
    "every-valid-pixel-claimed": case_every_valid_pixel_claimed,
    "no-valid-pixel": case_no_valid_pixel,
    "depth-beyond-max-range": case_depth_beyond_max_range,
}


@st.composite
def posed_frames(draw):
    """Small frames of a few depth patches with zero, near, far and beyond-range
    depths, up to four masks that may overlap, cover everything or nothing, and
    a random rigid pose."""
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 32))
    raw = st.sampled_from([0, 0, 450, 1000, 1001, 1733, 2500, 3999, 4000, 4001, 9000, 65535])
    depth = np.full((height, width), draw(raw), dtype=np.uint16)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 4))):
        v0, u0 = rng.integers(0, height), rng.integers(0, width)
        depth[v0 : v0 + rng.integers(1, height + 1), u0 : u0 + rng.integers(1, width + 1)] = draw(raw)
    speckle = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    depth[speckle] = rng.integers(0, 6000, size=int(speckle.sum()))
    masks = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["box", "box", "random", "all", "none", "pixel"]))
        mask = np.zeros((height, width), dtype=bool)
        if kind == "box":
            v0, u0 = rng.integers(0, height), rng.integers(0, width)
            mask[v0 : v0 + rng.integers(1, height + 1), u0 : u0 + rng.integers(1, width + 1)] = True
        elif kind == "random":
            mask = rng.random((height, width)) < 0.4
        elif kind == "all":
            mask[:] = True
        elif kind == "pixel":
            mask[rng.integers(0, height), rng.integers(0, width)] = True
        masks.append(mask)
    quaternion = np.array([draw(st.floats(-1, 1)) for _ in range(4)])
    if np.linalg.norm(quaternion) < 0.1:
        quaternion = np.array([1.0, 0.0, 0.0, 0.0])
    w, x, y, z = quaternion / np.linalg.norm(quaternion)
    rotation = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    translation = [draw(st.floats(-50, 50, allow_subnormal=False)) for _ in range(3)]
    pose = Pose(rotation=rotation, translation=np.array(translation))
    fx = draw(st.sampled_from([20.0, 90.0, 525.0]))
    max_range = draw(st.sampled_from([1.0, 2.5, 4.0, 70.0]))
    coarse = draw(st.sampled_from([0.01, 0.08, 0.3]))
    params = ClusteringParams(coarse_voxel=coarse, eps=1.8 * coarse, min_pts=draw(st.sampled_from([1, 2, 4])))
    return (*posed_frame(depth, masks, pose, fx), params, max_range)


class TestBuildOpinionsAgainstOracle:
    """One back-projection per frame, selected by column, against one
    back-projection per prediction with the ``(n, 3)`` product: the same
    opinions in the same order, with bit-identical points."""

    @pytest.mark.parametrize("case", LISTED_CASES.values(), ids=LISTED_CASES.keys())
    def test_listed_cases(self, case):
        depth, masks, max_range, categories, unknown_points = case()
        frame, intr, pose = posed_frame(depth, masks)
        opinions = build_opinions(frame, PARAMS, max_range, voxel_size=VOXEL)
        expected = oracle_build_opinions(frame, PARAMS, max_range, voxel_size=VOXEL)
        assert_same_opinions(opinions, expected)
        assert [o.category for o in opinions] == categories
        if unknown_points is not None:
            assert len(opinions[-1].points) == unknown_points

    @settings(max_examples=300, deadline=None)
    @given(posed_frames())
    def test_random_frames(self, posed):
        frame, intr, pose, params, max_range = posed
        opinions = build_opinions(frame, params, max_range, voxel_size=VOXEL)
        expected = oracle_build_opinions(frame, params, max_range, voxel_size=VOXEL)
        assert_same_opinions(opinions, expected)

    def test_lone_points_transformed_on_their_own(self):
        """A one-pixel selection in a frame of many valid pixels: numpy's
        one-point product rounds differently from the frame's product for
        about one pose in six, so many poses are tried."""
        depth = two_planes()
        mask = np.zeros(depth.shape, dtype=bool)
        mask[12, 17] = True
        claim_all_but_one = np.ones(depth.shape, dtype=bool)
        claim_all_but_one[3, 33] = False
        params = ClusteringParams(coarse_voxel=0.08, eps=0.144, min_pts=1)
        rng = np.random.default_rng(11)
        for _ in range(60):
            pose = Pose(rotation_about(rng.normal(size=3), rng.uniform(0, 6)), rng.normal(size=3) * 3)
            frame, intr, pose = posed_frame(depth, [mask, claim_all_but_one], pose)
            opinions = build_opinions(frame, params, voxel_size=VOXEL)
            assert [len(o.points) for o in opinions][::2] == [1, 1]
            assert_same_opinions(opinions, oracle_build_opinions(frame, params, voxel_size=VOXEL))

    def test_rendered_orbit_frames(self, tmp_path):
        """Rendered frames with dilated masks and depth noise, several of them
        seen from poses whose rotation mixes all three axes."""
        scene = simple_scene_with_noise()
        generate_synthetic(scene, seed=5, out_dir=tmp_path)
        params = ClusteringParams(coarse_voxel=0.08, eps=0.144, min_pts=4)
        compared = 0
        for record in load_manifest(tmp_path / "manifest.jsonl"):
            frame = load_frame(record)
            opinions = build_opinions(frame, params, 3.0, voxel_size=VOXEL)
            expected = oracle_build_opinions(frame, params, 3.0, voxel_size=VOXEL)
            assert_same_opinions(opinions, expected)
            compared += len(opinions)
        assert compared > len(scene.trajectory)


def simple_scene_with_noise():
    intrinsics = CameraIntrinsics(fx=130.0, fy=130.0, cx=80.0, cy=60.0, width=160, height=120, depth_scale=0.001)
    objects = [
        SceneObject(f"o{index}", category, np.array(low), np.array(high))
        for index, (category, low, high) in enumerate(
            [
                ("crate", (0.36, 0.36, 0.0), (0.66, 0.66, 0.5)),
                ("chair", (-0.76, 0.20, 0.0), (-0.34, 0.50, 0.34)),
                ("table", (-0.50, -0.76, 0.0), (-0.20, -0.46, 0.5)),
                ("crate", (-0.18, -0.08, 0.0), (0.20, 0.18, 0.26)),
            ]
        )
    ]
    return SyntheticScene(
        room_min=np.array([-2.0, -2.0, 0.0]),
        room_max=np.array([2.0, 2.0, 2.4]),
        objects=objects,
        trajectory=orbit_trajectory(np.zeros(3), 1.3, 1.1, 4, target=np.array([0.0, 0.0, 0.25])),
        intrinsics=intrinsics,
        noise=NoiseSpec(mask_dilation_px=2, depth_sigma=0.004, misclassification_rate=0.2),
    )


class TestPoseApply:
    def test_columns_are_a_c_ordered_product(self):
        points = np.random.default_rng(3).normal(size=(3, 50))
        world = TILTED.apply(points)
        assert world.shape == (3, 50) and world.flags.c_contiguous
        expected = TILTED.rotation @ points + TILTED.translation[:, None]
        assert np.allclose(world, expected, rtol=0, atol=1e-12)

    def test_no_columns(self):
        assert TILTED.apply(np.zeros((3, 0))).shape == (3, 0)

    def test_one_column_gives_the_scalar_oracle_bits(self):
        """A pixel back-projected alone goes through ``apply`` as one ``(3, 1)``
        column, and its point has the bits of the oracle's scalar lift."""
        _, intr, _ = posed_frame(np.zeros((30, 40), dtype=np.uint16), [])
        rng = np.random.default_rng(11)
        for u, v, raw in zip(rng.integers(0, 40, 50), rng.integers(0, 30, 50), rng.integers(1, 4000, 50)):
            column = backproject_pixels(np.array([u]), np.array([v]), np.array([raw], dtype=np.uint16), intr, TILTED)
            assert column.shape == (3, 1)
            assert column[:, 0].tobytes() == backproject(int(u), int(v), int(raw), intr, TILTED).tobytes()
