import json
import math

import numpy as np
import pytest

from voxeland.frames import (
    CameraIntrinsics,
    DatasetError,
    DepthImage,
    Pose,
    backproject_pixels,
    crop_bbox,
    decode_rle_mask,
    encode_rle_mask,
    load_ground_truth,
    load_manifest,
    load_predictions,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)

from oracles import backproject, project

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480, depth_scale=0.001)
IDENTITY = Pose(rotation=np.eye(3), translation=np.zeros(3))


def manifest_line(frame_id, depth="d.pgm", predictions="p.json", rotation=None):
    rotation = rotation if rotation is not None else np.eye(3)
    return json.dumps(
        {
            "frame_id": frame_id,
            "depth": depth,
            "predictions": predictions,
            "pose": {"rotation": list(np.asarray(rotation).ravel()), "translation": [0, 0, 0]},
            "intrinsics": {
                "fx": 500,
                "fy": 500,
                "cx": 320,
                "cy": 240,
                "width": 640,
                "height": 480,
                "depth_scale": 0.001,
            },
        }
    )


class TestManifest:
    def test_three_lines_in_order(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(manifest_line(i) for i in (5, 2, 9)) + "\n")
        records = load_manifest(path)
        assert [r.frame_id for r in records] == [5, 2, 9]
        assert records[0].depth_path == tmp_path / "d.pgm"

    def test_reflection_pose_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        reflection = np.diag([1.0, 1.0, -1.0])
        path.write_text(manifest_line(0) + "\n" + manifest_line(1, rotation=reflection) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_manifest(path)

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        assert load_manifest(path) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_manifest(tmp_path / "nope.jsonl")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(manifest_line(0) + "\n{not json\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_manifest(path)

    def test_deterministic_reload(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(manifest_line(i) for i in range(4)))
        first = load_manifest(path)
        second = load_manifest(path)
        assert [r.frame_id for r in first] == [r.frame_id for r in second]
        for a, b in zip(first, second):
            assert np.array_equal(a.pose.rotation, b.pose.rotation)
            assert a.intrinsics == b.intrinsics


class TestRle:
    def test_single_zero_run(self):
        mask = decode_rle_mask([6], 2, 3)
        assert mask.shape == (3, 2)
        assert not mask.any()

    def test_leading_empty_zero_run(self):
        assert decode_rle_mask([0, 6], 2, 3).all()

    def test_alternating_runs(self):
        mask = decode_rle_mask([2, 1, 3], 2, 3)
        assert list(np.flatnonzero(mask.ravel())) == [2]

    def test_sum_mismatch(self):
        with pytest.raises(DatasetError, match="sum"):
            decode_rle_mask([2, 1], 2, 3)

    def test_round_trip_random_masks(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            height = int(rng.integers(1, 12))
            width = int(rng.integers(1, 12))
            mask = rng.random((height, width)) < rng.random()
            runs = encode_rle_mask(mask)
            assert np.array_equal(decode_rle_mask(runs, width, height), mask)


class TestBackproject:
    def test_principal_point_ray(self):
        point = backproject(320, 240, 2000, INTR, IDENTITY)
        assert point == pytest.approx([0.0, 0.0, 2.0])

    def test_off_axis_pixel(self):
        point = backproject(420, 240, 2000, INTR, IDENTITY)
        assert point == pytest.approx([0.4, 0.0, 2.0])

    def test_zero_depth_is_invalid(self):
        assert backproject(320, 240, 0, INTR, IDENTITY) is None

    def test_beyond_max_range_is_invalid(self):
        assert backproject(320, 240, 4500, INTR, IDENTITY, max_range=4.0) is None

    def test_out_of_bounds_pixel_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            backproject(640, 0, 1000, INTR, IDENTITY)

    def test_round_trip_with_projection(self):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = 0.7
        cross = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        rotation = np.eye(3) + math.sin(angle) * cross + (1 - math.cos(angle)) * cross @ cross
        pose = Pose(rotation=rotation, translation=np.array([0.4, -1.0, 2.0]))
        for _ in range(300):
            u = int(rng.integers(0, INTR.width))
            v = int(rng.integers(0, INTR.height))
            raw = int(rng.integers(200, 3900))
            point = backproject(u, v, raw, INTR, pose)
            assert point is not None
            u2, v2, z2 = project(point, INTR, pose)
            assert abs(u2 - u) < 0.5 and abs(v2 - v) < 0.5
            assert abs(z2 - raw * INTR.depth_scale) < 1e-3

    def test_batch_matches_scalar(self):
        us = np.array([320, 420, 100])
        vs = np.array([240, 240, 50])
        raws = np.array([2000, 2000, 0])
        points, keep = backproject_pixels(us, vs, raws, INTR, IDENTITY)
        assert keep.tolist() == [True, True, False]
        assert points[0] == pytest.approx([0.0, 0.0, 2.0])
        assert points[1] == pytest.approx([0.4, 0.0, 2.0])


class TestPoseAndIntrinsics:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    def test_intrinsics_invariants(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10, depth_scale=0.001)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=20, cy=0, width=10, height=10, depth_scale=0.001)

    def test_depth_image_shape_checked(self):
        with pytest.raises(ValueError):
            DepthImage(width=3, height=2, values=np.zeros((3, 3), dtype=np.uint16))


class TestPgm:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.uint16).reshape(3, 4) * 1000
        write_pgm(tmp_path / "d.pgm", values)
        image = read_pgm(tmp_path / "d.pgm")
        assert image.width == 4 and image.height == 3
        assert np.array_equal(image.values, values)

    def test_rejects_non_pgm(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DatasetError):
            read_pgm(tmp_path / "bad.pgm")


class TestPpm:
    def test_round_trip_and_crop(self, tmp_path):
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        write_ppm(tmp_path / "c.ppm", pixels)
        image = read_ppm(tmp_path / "c.ppm")
        assert np.array_equal(image, pixels)
        crop = crop_bbox(image, (1, 0, 2, 1))
        assert crop.shape == (2, 2, 3)


class TestPredictionsAndGroundTruth:
    def test_load_predictions(self, tmp_path):
        payload = {"instances": [{"category": "chair", "confidence": 0.9, "rle": [5, 1]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        predictions = load_predictions(path)
        assert predictions[0].category == "chair"
        assert predictions[0].mask(3, 2).sum() == 1

    def test_confidence_range_enforced(self, tmp_path):
        payload = {"instances": [{"category": "chair", "confidence": 1.5, "rle": [6]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError):
            load_predictions(path)

    def test_ground_truth_round_trip(self, tmp_path):
        payload = {
            "voxel_size": 0.02,
            "instances": [
                {"id": "a", "category": "chair", "voxels": [[0, 0, 0], [0, 1, 0]]},
                {"id": "b", "category": "table", "voxels": [[5, 5, 5]]},
            ],
        }
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        scene = load_ground_truth(path)
        assert scene.voxel_size == 0.02
        assert {i.id for i in scene.instances} == {"a", "b"}
        assert (0, 1, 0) in scene.instances[0].voxels

    def test_duplicate_ids_rejected(self, tmp_path):
        payload = {
            "voxel_size": 0.02,
            "instances": [
                {"id": "a", "category": "chair", "voxels": [[0, 0, 0]]},
                {"id": "a", "category": "table", "voxels": [[1, 1, 1]]},
            ],
        }
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="duplicate"):
            load_ground_truth(path)
