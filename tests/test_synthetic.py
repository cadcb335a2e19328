import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.frames import CameraIntrinsics, decode_rle_mask, load_manifest, load_frame
from voxeland import synthetic
from voxeland.cli import main
from voxeland.synthetic import (
    NoiseSpec,
    SceneObject,
    SyntheticScene,
    _box_windows as box_windows,
    _dilate_mask as dilate_mask,
    _pixel_rays,
    _slab as slab,
    generate_synthetic,
    ground_truth_scene,
    load_scene_spec,
    look_at_pose,
    orbit_trajectory,
    render_frame,
    scene_from_spec,
    voxelize_box_shell,
)
from voxeland.voxelmap import pack_keys, unpack_keys

from oracles import oracle_dilate_mask, oracle_render_frame, oracle_voxelize_box_shell

INTR = CameraIntrinsics(fx=100.0, fy=100.0, cx=40.0, cy=30.0, width=80, height=60, depth_scale=0.001)


def simple_scene(noise=None, frames=1):
    box = SceneObject(
        instance_id="o1",
        category="crate",
        box_min=np.array([-0.25, -0.25, 0.0]),
        box_max=np.array([0.25, 0.25, 0.5]),
    )
    trajectory = [
        look_at_pose(np.array([2.0, 0.0, 0.8]), np.array([0.0, 0.0, 0.25]))
        for _ in range(frames)
    ]
    return SyntheticScene(
        room_min=np.array([-3.0, -3.0, 0.0]),
        room_max=np.array([3.0, 3.0, 2.4]),
        objects=[box],
        trajectory=trajectory,
        intrinsics=INTR,
        voxel_size=0.02,
        noise=noise or NoiseSpec(),
    )


class TestRenderer:
    def test_frontal_depth_matches_face_distance(self):
        scene = simple_scene()
        depth, owner = render_frame(scene, scene.trajectory[0])
        assert owner[30, 40] == 0  # principal ray hits the box front face
        # principal ray from (2, 0, 0.8) to (0, 0, 0.25): the front face plane
        # x = 0.25 lies at fraction (2 - 0.25) / 2 of the segment, and the
        # camera-frame depth of an on-axis point is its distance to the eye
        eye_to_target = np.linalg.norm(np.array([2.0, 0.0, 0.8]) - np.array([0.0, 0.0, 0.25]))
        expected = (2.0 - 0.25) / 2.0 * eye_to_target
        assert depth[30, 40] == pytest.approx(expected, abs=1e-6)

    def test_background_hits_room_walls(self):
        scene = simple_scene()
        depth, owner = render_frame(scene, scene.trajectory[0])
        assert (owner == -1).any()
        assert np.isfinite(depth[owner == -1]).all()
        assert depth[owner == -1].max() > 2.0

    def test_mask_pixels_backproject_inside_box(self):
        scene = simple_scene()
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            generate_synthetic(scene, seed=0, out_dir=tmp)
            records = load_manifest(pathlib.Path(tmp) / "manifest.jsonl")
            frame = load_frame(records[0])
            mask = frame.predictions[0].mask
            depth = frame.depth
            from voxeland.frames import backproject_pixels

            vs, us = np.nonzero(mask & (depth != 0))
            points = backproject_pixels(us, vs, depth[vs, us], INTR, records[0].pose).T
            box = scene.objects[0]
            slack = 2e-3  # depth quantization at 1 mm
            assert np.all(points >= box.box_min - slack)
            assert np.all(points <= box.box_max + slack)

    def test_noiseless_predictions_carry_true_category(self):
        import tempfile, pathlib

        scene = simple_scene(frames=3)
        with tempfile.TemporaryDirectory() as tmp:
            generate_synthetic(scene, seed=0, out_dir=tmp)
            for frame_path in sorted((pathlib.Path(tmp) / "predictions").iterdir()):
                payload = json.loads(frame_path.read_text())
                for instance in payload["instances"]:
                    assert instance["category"] == "crate"
                    assert instance["confidence"] == 0.9

    def test_same_seed_is_byte_identical(self):
        import tempfile, pathlib

        scene = simple_scene(noise=NoiseSpec(misclassification_rate=0.5, depth_sigma=0.003), frames=3)

        def checksum(root):
            digest = {}
            for path in sorted(pathlib.Path(root).rglob("*")):
                if path.is_file():
                    digest[str(path.relative_to(root))] = path.read_bytes()
            return digest

        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            generate_synthetic(scene, seed=11, out_dir=a)
            generate_synthetic(scene, seed=11, out_dir=b)
            assert checksum(a) == checksum(b)

    def test_pose_without_geometry_yields_empty_predictions(self):
        import tempfile, pathlib

        scene = simple_scene()
        # look straight up at the ceiling: no objects in view
        scene.trajectory = [look_at_pose(np.array([2.0, 2.0, 1.0]), np.array([2.0, 2.0, 2.3]))]
        with tempfile.TemporaryDirectory() as tmp:
            generate_synthetic(scene, seed=0, out_dir=tmp)
            payload = json.loads((pathlib.Path(tmp) / "predictions" / "00000.json").read_text())
            assert payload["instances"] == []


VOXEL = 0.02
SMALL = CameraIntrinsics(fx=12.0, fy=12.0, cx=8.0, cy=6.0, width=16, height=12, depth_scale=0.001)
# unit directions that look_at_pose turns into exact rotations, so the rays of
# the principal row and column have exact zeros in their world directions
AXIS_VIEWS = [
    np.array(v, dtype=float)
    for v in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
]


@st.composite
def grid_boxes(draw, max_voxels=12):
    """Boxes in the room [-1, 1]^3 whose faces often lie on voxel boundaries
    and which are often one voxel thin, or thinner, on some axis."""
    low, high = [], []
    for _ in range(3):
        start = draw(st.integers(-50, 50 - max_voxels - 1))
        offset = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
        size = draw(
            st.sampled_from([1.0, 0.5, 0.01])
            | st.integers(1, max_voxels).map(float)
            | st.floats(0.001, max_voxels)
        )
        low.append((start + offset) * VOXEL)
        high.append((start + offset + size) * VOXEL)
    return np.array(low), np.array(high)


def assert_same_render(scene, pose):
    depth, owner = render_frame(scene, pose)
    expected_depth, expected_owner = oracle_render_frame(scene, pose)
    assert depth.dtype == expected_depth.dtype and depth.tobytes() == expected_depth.tobytes()
    assert owner.dtype == expected_owner.dtype and np.array_equal(owner, expected_owner)


def room_scene(boxes, intrinsics=SMALL):
    objects = [SceneObject(f"o{n}", "crate", low, high) for n, (low, high) in enumerate(boxes)]
    pose = look_at_pose(np.zeros(3), np.ones(3))
    return SyntheticScene(
        room_min=np.full(3, -1.0),
        room_max=np.full(3, 1.0),
        objects=objects,
        trajectory=[pose],
        intrinsics=intrinsics,
        voxel_size=VOXEL,
    )


FULL_WINDOW = (slice(0, SMALL.height), slice(0, SMALL.width))

FIVE_BOXES = [
    (np.array(low), np.array(high))
    for low, high in (
        ((0.36, 0.36, 0.0), (0.66, 0.66, 0.5)),
        ((-0.76, 0.20, 0.0), (-0.34, 0.50, 0.34)),
        ((-0.50, -0.76, 0.0), (-0.20, -0.46, 0.5)),
        ((0.34, -0.60, 0.0), (0.56, -0.50, 0.42)),
        ((-0.18, -0.08, 0.0), (0.20, 0.18, 0.26)),
    )
]


def clutter_boxes(count=48, seed=20241113):
    """``count`` boxes of varied size and height, one in each of ``count``
    cells of an 8x8 grid of 0.4 m cells, so no two touch."""
    rng = np.random.default_rng(seed)
    boxes = []
    for index in sorted(int(c) for c in rng.choice(64, size=count, replace=False)):
        x0, y0 = -1.6 + 0.4 * (index % 8), -1.6 + 0.4 * (index // 8)
        sx, sy = rng.uniform(0.14, 0.30, size=2)
        sz = rng.uniform(0.12, 0.6)
        ox = x0 + 0.05 + rng.uniform(0.0, 0.3 - sx)
        oy = y0 + 0.05 + rng.uniform(0.0, 0.3 - sy)
        boxes.append((np.array([ox, oy, 0.0]), np.array([ox + sx, oy + sy, sz])))
    return boxes


def desk_scene(boxes, intrinsics, noise=None, trajectory=()):
    """The boxes on the floor of a 6 x 6 x 2.4 m room."""
    objects = [
        SceneObject(f"o{n}", ("crate", "chair", "table")[n % 3], low, high)
        for n, (low, high) in enumerate(boxes)
    ]
    return SyntheticScene(
        room_min=np.array([-3.0, -3.0, 0.0]),
        room_max=np.array([3.0, 3.0, 2.4]),
        objects=objects,
        trajectory=list(trajectory) or [look_at_pose(np.array([2.0, 0.0, 1.0]), np.zeros(3))],
        intrinsics=intrinsics,
        voxel_size=VOXEL,
        noise=noise or NoiseSpec(),
    )


class TestRendererAgainstOracle:
    """render_frame gives the bits of the reference's separate entry and exit
    slab tests, over (h, w, 3) nanmax/nanmin temporaries."""

    @settings(max_examples=200, deadline=None)
    @given(
        boxes=st.lists(grid_boxes(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_bit_identical_to_oracle(self, boxes, data):
        scene = room_scene(boxes)
        # eyes on box face planes make rays parallel to a face start on it
        faces = sorted({float(v) for low, high in boxes for v in (*low, *high)})
        coordinate = st.sampled_from(faces) | st.floats(-0.9, 0.9)
        eye = np.array([data.draw(coordinate) for _ in range(3)])
        view = data.draw(
            st.sampled_from(AXIS_VIEWS)
            | st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
                lambda v: np.linalg.norm(v) > 0.1
            )
        )
        assert_same_render(scene, look_at_pose(eye, eye + view))

    def test_camera_on_face_plane(self):
        """The principal column runs parallel to the box's x faces from the
        plane of one of them: the x slab is 0 * inf = NaN there, which the
        fmax/fmin of the slab test must skip as nanmax/nanmin did."""
        box = (np.array([0.0, 0.2, 0.0]), np.array([0.2, 0.4, 0.2]))
        scene = room_scene([box])
        pose = look_at_pose(np.array([0.0, 0.0, 0.1]), np.array([0.0, 1.0, 0.1]))
        dirs, origin = _pixel_rays(scene.intrinsics, pose)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_slab = (box[0][0] - origin[0]) / dirs[..., 0]
        assert np.isnan(x_slab).any()
        assert_same_render(scene, pose)
        depth, owner = render_frame(scene, pose)
        # the principal ray grazes the face x = 0 and enters at y = 0.2
        assert owner[6, 8] == 0 and depth[6, 8] == pytest.approx(0.2)

    def test_five_box_orbit_frames(self):
        intrinsics = CameraIntrinsics(260.0, 260.0, 160.0, 120.0, 320, 240, 0.001)
        scene = room_scene(FIVE_BOXES, intrinsics)
        for pose in orbit_trajectory(np.zeros(3), 0.95, 0.9, 3, target=np.array([0.0, 0.0, 0.25])):
            assert_same_render(scene, pose)

    # The camera sits at the origin looking along +x: image columns grow
    # toward -y and image rows toward -z.
    FORWARD = look_at_pose(np.zeros(3), np.array([1.0, 0.0, 0.0]))

    def test_boxes_behind_camera(self):
        boxes = [
            (np.array([-0.6, -0.2, -0.2]), np.array([-0.3, 0.2, 0.2])),
            (np.array([-0.9, 0.3, -0.5]), np.array([-0.05, 0.5, -0.1])),
        ]
        scene = room_scene(boxes)
        assert box_windows(scene, self.FORWARD) == [FULL_WINDOW] * len(boxes)
        assert_same_render(scene, self.FORWARD)
        assert (render_frame(scene, self.FORWARD)[1] == -1).all()

    def test_boxes_straddling_image_plane(self):
        """Some corners in front of the camera, some behind: the window is the
        whole image, and the front part of each box is drawn."""
        boxes = [
            (np.array([-0.2, 0.1, -0.1]), np.array([0.3, 0.3, 0.1])),
            (np.array([-0.5, -0.4, -0.4]), np.array([0.6, -0.2, -0.1])),
            (np.array([0.0, -0.05, 0.2]), np.array([0.4, 0.05, 0.4])),
        ]
        scene = room_scene(boxes)
        assert box_windows(scene, self.FORWARD) == [FULL_WINDOW] * len(boxes)
        assert_same_render(scene, self.FORWARD)
        assert set(np.unique(render_frame(scene, self.FORWARD)[1])) == {-1, 0, 1, 2}

    def test_subnormal_depths_overflow_without_a_warning(self):
        """A corner at subnormal camera depth projects to infinity, and so does
        a ray's subnormal component in the slab test: no RuntimeWarning, the
        window is the whole image, and the slab bounds are those of a zero
        component."""
        scene = room_scene([(np.array([1e-310, 0.1, 0.1]), np.array([0.5, 0.3, 0.3]))])
        rays = np.array([[1e-310, 0.5, 1.0], [0.0, 0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert box_windows(scene, self.FORWARD) == [FULL_WINDOW]
            t_near, t_far = slab(np.zeros(3), rays, np.array([-1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
            assert_same_render(scene, self.FORWARD)
        assert t_near.tolist() == [2.0, 2.0] and t_far.tolist() == [3.0, 3.0]

    @pytest.mark.parametrize(
        "low, high",
        [
            ((0.3, 0.6, -0.1), (0.5, 0.8, 0.1)),  # left of the view
            ((0.3, -0.8, -0.1), (0.5, -0.6, 0.1)),  # right
            ((0.3, -0.1, 0.5), (0.5, 0.1, 0.7)),  # above
            ((0.3, -0.1, -0.7), (0.5, 0.1, -0.5)),  # below
        ],
    )
    def test_box_outside_view_has_empty_window(self, low, high):
        scene = room_scene([(np.array(low), np.array(high))])
        [(rows, cols)] = box_windows(scene, self.FORWARD)
        assert rows.start == rows.stop or cols.start == cols.stop
        assert_same_render(scene, self.FORWARD)
        assert (render_frame(scene, self.FORWARD)[1] == -1).all()

    @pytest.mark.parametrize(
        "low, high, edge",
        [
            ((0.5, 0.2, -0.05), (0.7, 0.6, 0.05), (slice(None), 0)),  # left
            ((0.5, -0.6, -0.05), (0.7, -0.2, 0.05), (slice(None), -1)),  # right
            ((0.5, -0.05, 0.2), (0.7, 0.05, 0.5), (0, slice(None))),  # top
            ((0.5, -0.05, -0.5), (0.7, 0.05, -0.2), (-1, slice(None))),  # bottom
            ((0.5, 0.2, 0.2), (0.7, 0.6, 0.5), (0, 0)),  # top-left corner
            ((0.2, -0.9, -0.9), (0.9, 0.9, 0.9), (slice(None), slice(None))),  # whole view
        ],
    )
    def test_box_cut_by_image_edge(self, low, high, edge):
        scene = room_scene([(np.array(low), np.array(high))])
        assert_same_render(scene, self.FORWARD)
        assert (render_frame(scene, self.FORWARD)[1][edge] == 0).any()

    @pytest.mark.parametrize(
        "boxes, intrinsics, radius, height, target_z",
        [
            (FIVE_BOXES, CameraIntrinsics(520.0, 520.0, 320.0, 240.0, 640, 480, 0.001), 1.9, 1.1, 0.25),
            (clutter_boxes(), CameraIntrinsics(260.0, 260.0, 160.0, 120.0, 320, 240, 0.001), 2.5, 1.5, 0.2),
        ],
        ids=["five-box-vga", "clutter-qvga"],
    )
    def test_desk_orbits(self, boxes, intrinsics, radius, height, target_z):
        scene = desk_scene(boxes, intrinsics)
        target = np.array([0.0, 0.0, target_z])
        for pose in orbit_trajectory(np.zeros(3), radius, height, 4, target=target):
            assert_same_render(scene, pose)


def edge_masks():
    """Random masks, masks with one pixel on an edge or in a corner, a full
    mask and a one-row image."""
    rng = np.random.default_rng(5)
    masks = [rng.random((13, 17)) < density for density in (0.01, 0.05, 0.3)]
    for row, col in ((0, 8), (12, 8), (6, 0), (6, 16), (0, 0), (12, 16), (0, 16), (12, 0)):
        mask = np.zeros((13, 17), dtype=bool)
        mask[row, col] = True
        masks.append(mask)
    masks.append(np.ones((13, 17), dtype=bool))
    one_row = np.zeros((1, 9), dtype=bool)
    one_row[0, 4] = True
    masks.append(one_row)
    return masks


class TestMaskDilation:
    @pytest.mark.parametrize("pixels", [1, 2, 3, 4])
    @pytest.mark.parametrize("mask", edge_masks())
    def test_equals_full_frame_dilation(self, mask, pixels):
        dilated = mask.copy()
        dilate_mask(dilated, pixels)
        assert np.array_equal(dilated, oracle_dilate_mask(mask, pixels))

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
        pixels=st.integers(1, 6),
        data=st.data(),
    )
    def test_random_masks(self, shape, pixels, data):
        size = shape[0] * shape[1]
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        mask = mask.reshape(shape)
        if not mask.any():  # generate_synthetic never dilates an empty mask
            mask[data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1))] = True
        dilated = mask.copy()
        dilate_mask(dilated, pixels)
        assert np.array_equal(dilated, oracle_dilate_mask(mask, pixels))


def dataset_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestGenerationAgainstReference:
    def test_byte_identical_to_full_frame_reference(self, tmp_path, monkeypatch):
        """A noisy scene with wide dilation, seen from close enough that boxes
        are cut by every image edge, written once as it is and once with the
        full-frame reference renderer and dilation swapped in."""
        intrinsics = CameraIntrinsics(96.0, 96.0, 64.0, 48.0, 128, 96, 0.001)
        noise = NoiseSpec(
            mask_dilation_px=3, depth_sigma=0.004, misclassification_rate=0.2, mislabel_confidence=0.7
        )
        trajectory = orbit_trajectory(np.zeros(3), 1.2, 0.5, 6, target=np.array([0.0, 0.0, 0.3]))
        scene = desk_scene(clutter_boxes(), intrinsics, noise, trajectory)
        generate_synthetic(scene, seed=11, out_dir=tmp_path / "fast")

        def full_frame_dilation(mask, pixels):
            mask[...] = oracle_dilate_mask(mask, pixels)

        with monkeypatch.context() as patch:
            patch.setattr(synthetic, "render_frame", oracle_render_frame)
            patch.setattr(synthetic, "_dilate_mask", full_frame_dilation)
            generate_synthetic(scene, seed=11, out_dir=tmp_path / "reference")
        assert dataset_bytes(tmp_path / "fast") == dataset_bytes(tmp_path / "reference")

        edges = set()
        for record in load_manifest(tmp_path / "fast" / "manifest.jsonl"):
            for prediction in load_frame(record).predictions:
                mask = prediction.mask
                edges.update(
                    name
                    for name, line in (
                        ("top", mask[0]), ("bottom", mask[-1]), ("left", mask[:, 0]), ("right", mask[:, -1])
                    )
                    if line.any()
                )
        assert edges == {"top", "bottom", "left", "right"}


def test_loaded_masks_equal_the_decoded_runs_of_the_file(tmp_path):
    """Every mask of every frame that ``load_frame`` returns is the decoding
    of the runs written to the frame's predictions file, in file order."""
    intrinsics = CameraIntrinsics(48.0, 48.0, 32.0, 24.0, 64, 48, 0.001)
    noise = NoiseSpec(mask_dilation_px=2, depth_sigma=0.004, misclassification_rate=0.2, mislabel_confidence=0.7)
    trajectory = orbit_trajectory(np.zeros(3), 1.6, 0.8, 4, target=np.array([0.0, 0.0, 0.3]))
    generate_synthetic(desk_scene(clutter_boxes(12), intrinsics, noise, trajectory), seed=5, out_dir=tmp_path)
    masks = 0
    for record in load_manifest(tmp_path / "manifest.jsonl"):
        instances = json.loads(record.predictions_path.read_text())["instances"]
        predictions = load_frame(record).predictions
        assert [(p.category, p.confidence) for p in predictions] == [
            (i["category"], i["confidence"]) for i in instances
        ]
        for prediction, instance in zip(predictions, instances):
            expected = decode_rle_mask(instance["rle"], intrinsics.width, intrinsics.height)
            assert prediction.mask.dtype == bool and np.array_equal(prediction.mask, expected)
            masks += 1
    assert masks >= 8


@pytest.mark.parametrize(
    "module, left_out",
    [
        ("voxeland.synthetic", "scipy"),
        ("voxeland.frames", "scipy"),
        ("voxeland.voxelmap", "scipy"),
        ("voxeland.uncertainty", "scipy.spatial"),
        ("voxeland.uncertainty", "scipy.sparse"),
        ("voxeland.export", "scipy.spatial"),
        ("voxeland.export", "scipy.sparse"),
        ("voxeland.evaluation", "scipy.spatial"),
        ("voxeland.evaluation", "scipy.sparse"),
        ("voxeland.cli", "scipy.ndimage"),
        ("voxeland.cli", "scipy"),
    ],
)
def test_import_leaves_out_scipy_ndimage(module, left_out):
    """Importing a module, in a fresh interpreter, loads no module of the
    scipy package it does not use: synthesis and the map need no scipy, the
    layers, exports and evaluation no clustering, and nothing scipy.ndimage,
    each of which costs tens to hundreds of milliseconds in every process."""
    src = Path(synthetic.__file__).resolve().parents[1]
    code = (
        f"import sys, {module}; "
        f"print(sorted(m for m in sys.modules if m == {left_out!r} or m.startswith({left_out + '.'!r})))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mask_dilation_px", -1),
            ("mask_dilation_px", 1.5),
            ("mask_dilation_px", 2.0),
            ("mask_dilation_px", True),
            ("depth_sigma", -0.001),
            ("depth_sigma", math.nan),
            ("depth_sigma", math.inf),
            ("misclassification_rate", -0.1),
            ("misclassification_rate", 3.0),
            ("misclassification_rate", math.nan),
            ("confidence", 0.0),
            ("confidence", 1.5),
            ("confidence", math.nan),
            ("mislabel_confidence", -0.2),
            ("mislabel_confidence", 1.0000001),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            NoiseSpec(**{field: value})

    def test_bounds_accepted(self):
        NoiseSpec(mask_dilation_px=0, depth_sigma=0.0, misclassification_rate=0.0, confidence=1.0)
        NoiseSpec(mask_dilation_px=np.int64(3), misclassification_rate=1.0, mislabel_confidence=1e-9)

    @pytest.mark.parametrize(
        "noise",
        [{"confidence": 1.5}, {"mask_dilation_px": 1.5}, {"misclassification_rate": 3}],
    )
    def test_spec_refused_before_any_file_is_written(self, tmp_path, noise):
        spec = {
            "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
            "intrinsics": {
                "fx": 100, "fy": 100, "cx": 40, "cy": 30,
                "width": 80, "height": 60, "depth_scale": 0.001,
            },
            "objects": [],
            "trajectory": {"orbit": {"center": [0, 0, 0], "radius": 2.0, "height": 0.8, "frames": 2}},
            "noise": noise,
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match=f"{next(iter(noise))} must be"):
            load_scene_spec(path)
        out = tmp_path / "dataset"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 1
        assert not out.exists()


class TestTargetedMislabel:
    def test_rate_and_target_respected(self):
        import tempfile, pathlib

        noise = NoiseSpec(
            misclassification_rate=0.5,
            mislabel_target="o1",
            mislabel_as="sofa",
            confidence=0.6,
            mislabel_confidence=0.95,
        )
        scene = simple_scene(noise=noise, frames=30)
        with tempfile.TemporaryDirectory() as tmp:
            generate_synthetic(scene, seed=3, out_dir=tmp)
            labels = []
            for frame_path in sorted((pathlib.Path(tmp) / "predictions").iterdir()):
                payload = json.loads(frame_path.read_text())
                labels.extend(i["category"] for i in payload["instances"])
            assert set(labels) == {"crate", "sofa"}
            wrong = sum(1 for l in labels if l == "sofa")
            assert 5 <= wrong <= 25  # rate 0.5 over 30 frames


def packed_oracle_shell(box_min: np.ndarray, box_max: np.ndarray) -> np.ndarray:
    """The oracle's shell of a box at VOXEL as sorted packed keys."""
    shell = sorted(oracle_voxelize_box_shell(box_min, box_max, VOXEL))
    return pack_keys(np.array(shell, dtype=np.int64).reshape(-1, 3))


class TestShellVoxelization:
    def test_two_voxel_cube_has_no_interior(self):
        shell = unpack_keys(voxelize_box_shell(np.zeros(3), np.full(3, 0.04), 0.02))
        # 0.04 boundary starts a new cell: span covers keys 0..2 per axis, and
        # only the central (1,1,1) cube would be interior -- but it touches the
        # closed box boundary region, check the definition directly
        assert (0, 0, 0) in shell

    def test_four_voxel_cube_interior_removed(self):
        # box [0, 0.08)^3 at 0.02: keys 0..4 per axis (boundary 0.08 opens key 4)
        shell = unpack_keys(voxelize_box_shell(np.zeros(3), np.full(3, 0.08), 0.02))
        # strictly interior cubes: those with cube_min > 0 and cube_max < 0.08
        # -> keys 1..2 per axis = 8 interior cubes out of 125
        assert len(shell) == 125 - 8
        assert (1, 1, 1) not in shell
        assert (0, 0, 0) in shell and (4, 4, 4) in shell

    @settings(max_examples=200, deadline=None)
    @given(grid_boxes())
    def test_equals_oracle(self, box):
        assert np.array_equal(voxelize_box_shell(*box, VOXEL), packed_oracle_shell(*box))

    @pytest.mark.parametrize(
        "low, high",
        [
            ((0.0, 0.0, 0.0), (0.08, 0.08, 0.08)),
            ((-0.1, 0.02, 0.3), (0.14, 0.04, 0.5)),
            ((0.02, 0.02, 0.02), (0.04, 0.04, 0.04)),
            ((0.01, -0.03, 0.0), (0.015, 0.05, 0.02)),
            ((0.03, 0.03, 0.03), (0.1, 0.1, 0.1)),
        ],
        ids=["faces-on-boundaries", "one-voxel-thin", "one-voxel-cube", "sub-voxel-thin", "off-grid"],
    )
    def test_boundary_and_thin_boxes_equal_oracle(self, low, high):
        shell = voxelize_box_shell(np.array(low), np.array(high), VOXEL)
        assert shell.dtype == np.int64
        assert np.array_equal(shell, packed_oracle_shell(np.array(low), np.array(high)))

    def test_ground_truth_uses_shell(self):
        scene = simple_scene()
        gt = ground_truth_scene(scene)
        assert gt.voxel_size == 0.02
        box = scene.objects[0]
        assert np.array_equal(gt.instances[0].keys, voxelize_box_shell(box.box_min, box.box_max, 0.02))


class TestSceneSpec:
    def test_round_trip_from_json(self):
        spec = {
            "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
            "voxel_size": 0.02,
            "intrinsics": {
                "fx": 100, "fy": 100, "cx": 40, "cy": 30,
                "width": 80, "height": 60, "depth_scale": 0.001,
            },
            "objects": [
                {"id": "o1", "category": "crate", "min": [-0.25, -0.25, 0], "max": [0.25, 0.25, 0.5]}
            ],
            "trajectory": {"orbit": {"center": [0, 0, 0], "radius": 2.0, "height": 0.8, "frames": 6}},
            "noise": {"misclassification_rate": 0.1},
        }
        scene = scene_from_spec(spec)
        assert len(scene.trajectory) == 6
        assert scene.objects[0].category == "crate"
        assert scene.noise.misclassification_rate == 0.1

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fx", math.nan, "fx nan is not finite"),
            ("depth_scale", math.inf, "depth_scale inf is not finite"),
            ("width", 80.5, "width 80.5 is not int"),
            ("cy", "30", "cy '30' is not int or float"),
        ],
    )
    def test_bad_intrinsics_rejected(self, tmp_path, field, value, message):
        spec = {
            "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
            "intrinsics": {
                "fx": 100, "fy": 100, "cx": 40, "cy": 30,
                "width": 80, "height": 60, "depth_scale": 0.001,
            },
            "objects": [],
            "trajectory": {"orbit": {"center": [0, 0, 0], "radius": 2.0, "height": 0.8, "frames": 2}},
        }
        spec["intrinsics"][field] = value
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError, match=message):
            load_scene_spec(path)

    def test_object_outside_room_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            SyntheticScene(
                room_min=np.zeros(3),
                room_max=np.ones(3),
                objects=[
                    SceneObject(
                        instance_id="bad",
                        category="x",
                        box_min=np.array([0.5, 0.5, 0.5]),
                        box_max=np.array([2.0, 0.9, 0.9]),
                    )
                ],
                trajectory=[look_at_pose(np.array([0.5, 0.5, 0.5]), np.array([0.9, 0.5, 0.5]))],
                intrinsics=INTR,
            )

    def test_orbit_poses_are_valid_and_look_inward(self):
        poses = orbit_trajectory(np.zeros(3), radius=2.0, height=1.0, frames=8)
        assert len(poses) == 8
        for pose in poses:
            # forward column points from eye roughly toward the origin
            forward = pose.rotation[:, 2]
            to_center = -pose.translation
            assert np.dot(forward, to_center) > 0
