import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.frames import (
    CameraIntrinsics,
    DepthImage,
    Frame,
    FrameRecord,
    Pose,
    PredictionInstance,
    encode_rle_mask,
)
from voxeland.opinions import (
    UNKNOWN_CATEGORY,
    ClusteringParams,
    SubjectiveOpinion,
    build_opinions,
    dbscan,
    filter_geometric_opinion,
    pixel_bbox,
)

from oracles import backproject, brute_force_dbscan, canonical_clustering, oracle_filter_geometric_opinion

PARAMS = ClusteringParams(coarse_voxel=0.08, eps=0.08 * 1.8, min_pts=4)

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
        depth=DepthImage(width=width, height=height, values=depth),
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


class TestFilterGeometricOpinion:
    def test_main_blob_survives_strays(self):
        rng = np.random.default_rng(2)
        blob = rng.uniform(0, 0.3, (500, 3))
        strays = rng.uniform(0, 0.05, (5, 3)) + np.array([2.0, 2.0, 2.0])
        points = np.vstack([blob, strays])
        kept = filter_geometric_opinion(points, PARAMS)
        assert len(kept) == 500
        assert np.all(kept.max(axis=0) < 1.0)

    def test_single_blob_fully_retained(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 0.2, (200, 3))
        kept = filter_geometric_opinion(points, PARAMS)
        assert len(kept) == 200

    def test_all_noise_rejected(self):
        points = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        assert len(filter_geometric_opinion(points, PARAMS)) == 0

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-1, 1, (300, 3))
        kept = filter_geometric_opinion(points, PARAMS)
        input_rows = {tuple(row) for row in points}
        assert all(tuple(row) in input_rows for row in kept)

    def test_permutation_invariant_as_a_set(self):
        rng = np.random.default_rng(5)
        points = np.vstack(
            [rng.uniform(0, 0.3, (80, 3)), rng.uniform(0, 0.1, (20, 3)) + 3.0]
        )
        kept_a = {tuple(r) for r in filter_geometric_opinion(points, PARAMS)}
        kept_b = {
            tuple(r)
            for r in filter_geometric_opinion(points[rng.permutation(len(points))], PARAMS)
        }
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
        kept = filter_geometric_opinion(points, PARAMS)
        expected = oracle_filter_geometric_opinion(points, PARAMS)
        assert kept.shape == expected.shape
        assert np.array_equal(kept, expected)


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
                PredictionInstance("chair", 0.9, encode_rle_mask(mask_a)),
                PredictionInstance("table", 0.8, encode_rle_mask(mask_b)),
            ],
        )
        opinions = build_opinions(frame, intr, pose, PARAMS)
        assert len(opinions) == 3
        assert [o.category for o in opinions] == ["chair", "table", UNKNOWN_CATEGORY]
        assert opinions[0].pixel_bbox == (5, 5, 14, 14)
        assert opinions[2].pixel_bbox is None

    def test_invalid_depth_prediction_dropped(self):
        depth = np.full((20, 20), 1000, dtype=np.uint16)
        depth[:10, :10] = 0
        mask = np.zeros((20, 20), dtype=bool)
        mask[:10, :10] = True
        frame, intr, pose = make_frame(depth, [PredictionInstance("chair", 0.9, encode_rle_mask(mask))])
        opinions = build_opinions(frame, intr, pose, PARAMS)
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
        frame, intr, pose = make_frame(depth, [PredictionInstance("box", 0.9, encode_rle_mask(mask))])
        opinions = build_opinions(frame, intr, pose, PARAMS)
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
                PredictionInstance("a", 0.9, encode_rle_mask(mask_a)),
                PredictionInstance("b", 0.9, encode_rle_mask(mask_b)),
            ],
        )
        opinions = build_opinions(frame, intr, pose, PARAMS)
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
        assert build_opinions(frame, intr, pose, PARAMS) == []

    def test_opinion_requires_points(self):
        with pytest.raises(ValueError):
            SubjectiveOpinion(
                points=np.zeros((0, 3)), category="x", confidence=0.5, source_frame=0, pixel_bbox=None
            )
