import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.frames import (
    CameraIntrinsics,
    DatasetError,
    FrameRecord,
    Pose,
    backproject_pixels,
    crop_bbox,
    decode_rle_mask,
    encode_rle_mask,
    load_frame,
    load_ground_truth,
    load_manifest,
    load_predictions,
    read_pgm,
    read_ppm,
    save_ground_truth,
    write_pgm,
    write_ppm,
)
from voxeland.voxelmap import pack_keys, unpack_keys

from fuzzing import mutate_one_value
from oracles import backproject, project

INTR = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480, depth_scale=0.001)
IDENTITY = Pose(rotation=np.eye(3), translation=np.zeros(3))


def manifest_frame(frame_id, depth="d.pgm", predictions="p.json", rotation=None, translation=(0, 0, 0)):
    rotation = rotation if rotation is not None else np.eye(3)
    return {
        "frame_id": frame_id,
        "depth": depth,
        "predictions": predictions,
        "pose": {
            "rotation": [float(v) for v in np.asarray(rotation).ravel()],
            "translation": list(translation),
        },
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


def manifest_line(frame_id, **kwargs):
    return json.dumps(manifest_frame(frame_id, **kwargs))


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

    @pytest.mark.parametrize(
        "pose, message",
        [
            ({"rotation": np.diag([np.nan, 1.0, 1.0])}, "rotation nan is not finite"),
            ({"rotation": np.full((3, 3), np.nan)}, "rotation nan is not finite"),
            ({"translation": (0.0, np.inf, 0.0)}, "translation inf is not finite"),
            ({"translation": (np.nan, 0.0, 0.0)}, "translation nan is not finite"),
        ],
        ids=["nan-in-rotation", "all-nan-rotation", "inf-translation", "nan-translation"],
    )
    def test_non_finite_pose_rejected_with_line_number(self, tmp_path, pose, message):
        path = tmp_path / "manifest.jsonl"
        path.write_text(manifest_line(0) + "\n" + manifest_line(1, **pose) + "\n")
        with pytest.raises(DatasetError, match=f"line 2: {message}"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: f.update(frame_id=1.7), "frame_id 1.7 is not int"),
            (lambda f: f.update(frame_id="3"), "frame_id '3' is not int"),
            (lambda f: f.update(frame_id=True), "frame_id True is not int"),
            (lambda f: f["intrinsics"].update(width=2.9), "width 2.9 is not int"),
            (lambda f: f["intrinsics"].update(height="480"), "height '480' is not int"),
            (lambda f: f["intrinsics"].update(fx="500"), "fx '500' is not int or float"),
            (lambda f: f["intrinsics"].update(fx=math.nan), "fx nan is not finite"),
            (lambda f: f["intrinsics"].update(fy=math.inf), "fy inf is not finite"),
            (lambda f: f["intrinsics"].update(cx=-math.inf), "cx -inf is not finite"),
            (lambda f: f["intrinsics"].update(depth_scale=math.nan), "depth_scale nan is not finite"),
            (lambda f: f["intrinsics"].update(depth_scale=10**400), "OverflowError: int too large"),
            (lambda f: f["pose"]["rotation"].__setitem__(0, "1"), "rotation '1' is not int or float"),
            (lambda f: f["pose"]["rotation"].__setitem__(4, True), "rotation True is not int or float"),
            (lambda f: f["pose"]["translation"].__setitem__(0, "0.5"), "translation '0.5' is not int or float"),
            (lambda f: f["pose"]["translation"].__setitem__(1, False), "translation False is not int or float"),
            (lambda f: f["pose"]["rotation"].pop(), "rotation .* is not a list of 9 numbers"),
            (lambda f: f["pose"]["translation"].append(0), "translation .* is not a list of 3 numbers"),
            (
                lambda f: f["pose"].update(rotation=np.eye(3).tolist()),
                "rotation .* is not a list of 9 numbers",
            ),
            (lambda f: f["pose"].update(translation="0 0 0"), "translation '0 0 0' is not a list of 3 numbers"),
            (
                lambda f: f["pose"].update(
                    rotation=["1", "0", "0", "0", True, "0", 0, 0, "1e0"], translation=["0.5", False, 1]
                ),
                "rotation '1' is not int or float",
            ),
        ],
        ids=[
            "float-frame-id", "string-frame-id", "bool-frame-id", "float-width", "string-height",
            "string-fx", "nan-fx", "inf-fy", "inf-cx", "nan-depth-scale", "huge-depth-scale",
            "string-rotation", "bool-rotation", "string-translation", "bool-translation",
            "eight-rotation-values", "four-translation-values", "nested-rotation", "string-translation-list",
            "strings-and-bools-for-identity",
        ],
    )
    def test_bad_types_rejected_with_file_and_line(self, tmp_path, edit, message):
        frame = manifest_frame(1)
        edit(frame)
        path = tmp_path / "manifest.jsonl"
        path.write_text(manifest_line(0) + "\n" + json.dumps(frame) + "\n")
        with pytest.raises(DatasetError, match=f"manifest.jsonl: line 2: {message}"):
            load_manifest(path)

    def test_integral_intrinsics_read_as_floats(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(manifest_line(0) + "\n")
        intrinsics = load_manifest(path)[0].intrinsics
        assert type(intrinsics.fx) is float and type(intrinsics.width) is int

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_line_parses_or_raises_dataset_error(self, tmp_path_factory, data):
        """One value anywhere in a valid line replaced or deleted: the manifest
        either loads, with the types it promises, or raises DatasetError."""
        frame = mutate_one_value(data, manifest_frame(0))
        path = tmp_path_factory.mktemp("manifest") / "manifest.jsonl"
        path.write_text(json.dumps(frame) + "\n")
        try:
            records = load_manifest(path)
        except DatasetError:
            return
        intrinsics = records[0].intrinsics
        assert type(records[0].frame_id) is int
        assert type(intrinsics.width) is int and type(intrinsics.height) is int
        numbers = (intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy, intrinsics.depth_scale)
        assert all(type(v) is float and math.isfinite(v) for v in numbers)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_fuzzed_text_parses_or_raises_dataset_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("manifest") / "manifest.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            load_manifest(path)
        except DatasetError:
            pass

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-3, 12) | st.integers(-(2**70), 2**70), max_size=8),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_fuzzed_runs_decode_or_raise_dataset_error(self, runs, width, height):
        try:
            mask = decode_rle_mask(runs, width, height)
        except DatasetError:
            return
        assert mask.shape == (height, width) and mask.sum() == sum(runs[1::2])


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
        """Every pixel given is back-projected, in input order: a zero depth
        lands on the camera centre and a depth past the default range stays."""
        us = np.array([320, 420, 100, 200])
        vs = np.array([240, 240, 50, 300])
        raws = np.array([2000, 2000, 0, 4500], dtype=np.uint16)
        points = backproject_pixels(us, vs, raws, INTR, IDENTITY)
        assert points.shape == (3, 4) and points.flags.c_contiguous
        assert points[:, 0] == pytest.approx([0.0, 0.0, 2.0])
        assert points[:, 1] == pytest.approx([0.4, 0.0, 2.0])
        assert points[:, 2].tolist() == [0.0, 0.0, 0.0]
        assert points[:, 3] == pytest.approx(backproject(200, 300, 4500, INTR, IDENTITY, max_range=5.0))


class TestPoseAndIntrinsics:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "depth_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_intrinsics_rejected(self, field, value):
        values = dict(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=10, height=10, depth_scale=0.001)
        values[field] = value
        with pytest.raises(ValueError, match="intrinsics hold a non-finite value"):
            CameraIntrinsics(**values)

    def test_intrinsics_invariants(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=10, height=10, depth_scale=0.001)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=1, fy=1, cx=20, cy=0, width=10, height=10, depth_scale=0.001)


class TestPgm:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.uint16).reshape(3, 4) * 1000
        write_pgm(tmp_path / "d.pgm", values)
        image = read_pgm(tmp_path / "d.pgm")
        assert image.dtype == np.uint16 and image.shape == (3, 4)
        assert np.array_equal(image, values)

    def test_rejects_non_pgm(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DatasetError):
            read_pgm(tmp_path / "bad.pgm")

    @pytest.mark.parametrize(
        "header",
        [b"P5\nab 2\n65535\n", b"P5\n-2 2\n65535\n", b"P5\n2 -2\n65535\n", b"P5\n2 2\n+65535\n"],
        ids=["letters", "negative-width", "negative-height", "signed-maxval"],
    )
    def test_bad_header_numbers_rejected_with_file_name(self, tmp_path, header):
        (tmp_path / "bad.pgm").write_bytes(header + bytes(8))
        with pytest.raises(DatasetError, match="bad.pgm: netpbm size and maxval are not decimal digits"):
            read_pgm(tmp_path / "bad.pgm")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([b"P5", b"P6", b" ", b"\n", b"\t", b"#", b"# c\n", b"-", b"+", b"0"])
            | st.sampled_from([b"2", b"3", b"255", b"65535", b"1e3", b"0x10", b"\xff"])
            | st.binary(max_size=3),
            max_size=12,
        ).map(b"".join)
    )
    def test_fuzzed_header_parses_or_raises_dataset_error(self, tmp_path_factory, header):
        path = tmp_path_factory.mktemp("netpbm") / "image"
        path.write_bytes(header + bytes(range(64)))
        for reader in (read_pgm, read_ppm):
            try:
                reader(path)
            except DatasetError:
                pass


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
        predictions = load_predictions(path, 3, 2)
        assert predictions[0].category == "chair"
        assert predictions[0].mask.shape == (2, 3) and predictions[0].mask.dtype == bool
        assert np.flatnonzero(predictions[0].mask).tolist() == [5]

    def test_confidence_range_enforced(self, tmp_path):
        payload = {"instances": [{"category": "chair", "confidence": 1.5, "rle": [6]}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError):
            load_predictions(path, 3, 2)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda i: i.update(rle=[2.5, 2.5]), "a run length is not an integer"),
            (lambda i: i.update(rle=[True, 5]), "a run length is not an integer"),
            (lambda i: i.update(rle="15"), "rle '15' is not list"),
            (lambda i: i.update(confidence="0.5"), "confidence '0.5' is not int or float"),
            (lambda i: i.update(confidence=math.nan), "confidence nan is not finite"),
            (lambda i: i.update(category=5), "category 5 is not str"),
            (lambda i: i.update(category=None), "category None is not str"),
            (lambda i: i.update(rle=[-1, 7]), r"negative run length in \[-1, 7\]"),
            (lambda i: i.update(rle=[3, -2, 5]), r"negative run length in \[3, -2, 5\]"),
        ],
        ids=[
            "float-runs", "bool-run", "string-rle", "string-confidence", "nan-confidence",
            "int-category", "null-category", "negative-first-run", "negative-later-run",
        ],
    )
    def test_bad_types_rejected_with_file_name(self, tmp_path, edit, message):
        instance = {"category": "chair", "confidence": 0.9, "rle": [5, 1]}
        edit(instance)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"instances": [instance]}))
        with pytest.raises(DatasetError, match=f"p.json: {message}"):
            load_predictions(path, 3, 2)

    @staticmethod
    def frame_4(tmp_path, instances) -> FrameRecord:
        """The record of frame 4, a 3x2 depth image with these predictions."""
        write_pgm(tmp_path / "d.pgm", np.full((2, 3), 1000, dtype=np.uint16))
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"instances": instances}))
        return FrameRecord(
            frame_id=4,
            depth_path=tmp_path / "d.pgm",
            predictions_path=path,
            pose=IDENTITY,
            intrinsics=CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=3, height=2, depth_scale=0.001),
        )

    @pytest.mark.parametrize("runs", [[5], [5, 2], [0, 7], []], ids=["short", "long", "long-ones", "empty"])
    def test_runs_not_covering_the_depth_image_rejected_with_file_name(self, tmp_path, runs):
        record = self.frame_4(tmp_path, [
            {"category": "chair", "confidence": 0.9, "rle": [6]},
            {"category": "table", "confidence": 0.9, "rle": runs},
        ])
        message = f"p\\.json: frame 4: instance 1: run lengths sum to {sum(runs)}, expected 6 for 3x2"
        with pytest.raises(DatasetError, match=message):
            load_frame(record)

    def test_negative_run_of_a_loaded_frame_names_frame_and_instance(self, tmp_path):
        record = self.frame_4(tmp_path, [
            {"category": "chair", "confidence": 0.9, "rle": [6]},
            {"category": "table", "confidence": 0.9, "rle": [-1, 7]},
        ])
        with pytest.raises(DatasetError, match=r"p\.json: frame 4: instance 1: negative run length in \[-1, 7\]"):
            load_frame(record)

    def test_loaded_frame_holds_decoded_masks(self, tmp_path):
        record = self.frame_4(tmp_path, [{"category": "chair", "confidence": 0.9, "rle": [1, 2, 3]}])
        (prediction,) = load_frame(record).predictions
        assert prediction.mask.tolist() == [[False, True, True], [False, False, False]]

    def test_depth_size_not_matching_the_intrinsics_rejected(self, tmp_path):
        write_pgm(tmp_path / "d.pgm", np.full((3, 2), 1000, dtype=np.uint16))
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"instances": []}))
        record = FrameRecord(
            frame_id=4,
            depth_path=tmp_path / "d.pgm",
            predictions_path=path,
            pose=IDENTITY,
            intrinsics=CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=3, height=2, depth_scale=0.001),
        )
        message = "d\\.pgm: frame 4: depth size 2x3 does not match intrinsics 3x2"
        with pytest.raises(DatasetError, match=message):
            load_frame(record)

    def test_integral_confidence_read_as_float(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"instances": [{"category": "chair", "confidence": 1, "rle": [6]}]}))
        assert type(load_predictions(path, 3, 2)[0].confidence) is float

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_predictions_parse_or_raise_dataset_error(self, tmp_path_factory, data):
        """One value anywhere in a valid file replaced or deleted: the file
        either loads, with the types it promises, or raises DatasetError."""
        payload = {
            "instances": [
                {"category": "chair", "confidence": 0.9, "rle": [5, 1]},
                {"category": "table", "confidence": 0.6, "rle": [0, 3, 3]},
            ]
        }
        path = tmp_path_factory.mktemp("predictions") / "p.json"
        path.write_text(json.dumps(mutate_one_value(data, payload)))
        try:
            predictions = load_predictions(path, 3, 2)
        except DatasetError:
            return
        for prediction in predictions:
            assert type(prediction.category) is str and type(prediction.confidence) is float
            assert prediction.mask.dtype == bool and prediction.mask.shape == (2, 3)

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
        assert unpack_keys(scene.instances[0].keys) == [(0, 0, 0), (0, 1, 0)]

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda g: g.update(voxel_size="0.02"), "voxel_size '0.02' is not int or float"),
            (lambda g: g.update(voxel_size=math.nan), "voxel_size nan is not finite"),
            (lambda g: g.update(voxel_size=-0.02), "voxel_size -0.02 is not positive"),
            (lambda g: g.update(voxel_size=0), "voxel_size 0.0 is not positive"),
            (lambda g: g["instances"][0].update(id=5), "id 5 is not str"),
            (lambda g: g["instances"][0].update(category=7), "category 7 is not str"),
            (lambda g: g["instances"][0].update(voxels=[[1.7, 0, True]]), r"voxel \[1.7, 0, True\] is not three"),
            (lambda g: g["instances"][0].update(voxels=[[1, 0, True]]), r"voxel \[1, 0, True\] is not three"),
            (lambda g: g["instances"][0].update(voxels=[[1, 0]]), r"voxel \[1, 0\] is not three"),
            (lambda g: g["instances"][0].update(voxels=[[1, 0, 0, 0]]), r"voxel \[1, 0, 0, 0\] is not three"),
            (lambda g: g["instances"][0].update(voxels=["abc"]), "voxel 'abc' is not three"),
            (lambda g: g["instances"][0].update(voxels="abc"), "voxels 'abc' is not list"),
        ],
        ids=[
            "string-voxel-size", "nan-voxel-size", "negative-voxel-size", "zero-voxel-size", "int-id", "int-category", "float-and-bool-voxel",
            "bool-voxel", "short-voxel", "long-voxel", "string-voxel", "string-voxels",
        ],
    )
    def test_ground_truth_bad_types_rejected_with_file_name(self, tmp_path, edit, message):
        payload = {
            "voxel_size": 0.02,
            "instances": [{"id": "a", "category": "chair", "voxels": [[0, 0, 0], [-1, 2, 3]]}],
        }
        edit(payload)
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match=f"gt.json: .*{message}"):
            load_ground_truth(path)

    @pytest.mark.parametrize(
        "voxel",
        [[2**20, 0, 0], [0, -(2**20) - 1, 0], [0, 0, 2**40], [0, 0, 2**63]],
        ids=["one-above", "one-below", "far-above", "beyond-int64"],
    )
    def test_ground_truth_voxel_outside_packable_range_rejected(self, tmp_path, voxel):
        """No map voxel can lie outside the packable range, so a ground-truth
        voxel there is an error, not a voxel that can never match."""
        payload = {"voxel_size": 0.02, "instances": [{"id": "a", "category": "chair", "voxels": [[0, 0, 0], voxel]}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match="gt.json: "):
            load_ground_truth(path)

    def test_ground_truth_packable_range_limits_accepted(self, tmp_path):
        voxels = [[2**20 - 1, -(2**20), 0], [-(2**20), 2**20 - 1, 2**20 - 1]]
        payload = {"voxel_size": 0.02, "instances": [{"id": "a", "category": "chair", "voxels": voxels}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        assert unpack_keys(load_ground_truth(path).instances[0].keys) == sorted(map(tuple, voxels))

    def test_ground_truth_voxel_listed_twice_counts_once(self, tmp_path):
        payload = {
            "voxel_size": 0.02,
            "instances": [{"id": "a", "category": "chair", "voxels": [[1, 2, 3], [0, 0, 0], [1, 2, 3]]}],
        }
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        scene = load_ground_truth(path)
        assert scene.instances[0].keys.tolist() == pack_keys(np.array([[0, 0, 0], [1, 2, 3]])).tolist()
        save_ground_truth(tmp_path / "saved.json", scene)
        assert json.loads((tmp_path / "saved.json").read_text())["instances"][0]["voxels"] == [[0, 0, 0], [1, 2, 3]]

    def test_ground_truth_keys_are_python_ints(self, tmp_path):
        payload = {"voxel_size": 1, "instances": [{"id": "a", "category": "chair", "voxels": [[0, -1, 2]]}]}
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(payload))
        scene = load_ground_truth(path)
        assert scene.voxel_size == 1.0 and type(scene.voxel_size) is float
        assert scene.instances[0].keys.dtype == np.int64
        assert unpack_keys(scene.instances[0].keys) == [(0, -1, 2)]
        assert all(type(i) is int for i in unpack_keys(scene.instances[0].keys)[0])
