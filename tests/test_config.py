import json

import numpy as np
import pytest

from voxeland.config import PipelineConfig
from voxeland.frames import write_ppm
from voxeland.fusion import Pipeline, carve_free_space, integrate_geometric
from voxeland.opinions import SubjectiveOpinion
from voxeland.voxelmap import MapState

from oracles import OracleMap, cells_of, oracle_carve_free_space, oracle_integrate, oracle_snapshot_dict


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.voxel_size == 0.02
        assert config.tau_iou == 0.4
        assert config.tau_ios == 0.7
        assert config.refine_every == 30
        assert config.max_range == 4.0
        assert config.entropy_threshold == 0.5
        assert config.min_prob == 0.15
        assert config.views_per_candidate == 3
        assert config.iou_threshold == 0.5
        assert not config.carve_free_space

    def test_derived_clustering_defaults(self):
        params = PipelineConfig().clustering_params()
        assert params.coarse_voxel == pytest.approx(0.08)
        assert params.eps == pytest.approx(0.144)
        assert params.min_pts == 4

    def test_from_file_overrides_and_extras(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"voxel_size": 0.05, "tau_iou": 0.3}))
        config = PipelineConfig.from_file(path)
        assert config.voxel_size == 0.05
        assert config.tau_iou == 0.3
        assert config.clustering_params().coarse_voxel == pytest.approx(0.2)
        path.write_text(json.dumps({"voxel_size": 0.05, "voxelsize": 0.1, "custom_key": 1}))
        with pytest.raises(ValueError, match=r"unknown config keys \['custom_key', 'voxelsize'\]"):
            PipelineConfig.from_file(path)
        path.write_text(json.dumps([0.05]))
        with pytest.raises(ValueError, match="one JSON object"):
            PipelineConfig.from_file(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"voxel_size": "0.02"},
            {"voxel_size": 0},
            {"voxel_size": float("nan")},
            {"dbscan_min_pts": 4.0},
            {"dbscan_min_pts": True},
            {"refine_every": 0},
            {"tau_ios": 1.5},
            {"p_miss": 0.0},
            {"log_odds_min": 1.0, "log_odds_max": 0.0},
            {"carve_free_space": 1},
            {"carve_stride": 0},
            {"coarse_voxel": -0.1},
            {"min_prob": 1.2},
            {"views_per_candidate": -1},
            {"iou_threshold": 0.0},
            {"eval_classes": "chair"},
            {"eval_classes": ["chair", 3]},
            {"endpoint": None},
            {"timeout_s": 0},
        ],
    )
    def test_wrong_type_or_range_rejected(self, overrides):
        with pytest.raises(ValueError):
            PipelineConfig(**overrides)

    def test_occupancy_params_derived(self):
        occupancy = PipelineConfig(p_hit=0.8, p_miss=0.3).occupancy_params()
        assert occupancy.p_hit == 0.8
        assert occupancy.l_hit == pytest.approx(np.log(0.8 / 0.2))


class TestFreeSpaceCarving:
    def test_misses_applied_between_camera_and_surface(self):
        state = MapState(voxel_size=0.1)
        instance_id = state.new_instance()
        surface = np.array([[2.05, 0.05, 0.05]])
        opinion = SubjectiveOpinion(
            points=surface, category="x", confidence=0.9, source_frame=0, pixel_bbox=(0, 0, 1, 1), voxel_size=0.1
        )
        carve_free_space(opinion, state, camera_origin=np.array([0.05, 0.05, 0.05]), stride_voxels=2)
        cells = cells_of(state)
        carved = [key for key, cell in cells.items() if cell.log_odds < 0]
        assert carved, "some voxels along the ray must receive misses"
        assert all(cell.log_odds == state.occupancy.l_miss for cell in cells.values())
        assert all(key[0] < 20 for key in carved), "the surface voxel itself is spared"
        assert (20, 0, 0) not in cells

    def test_matches_per_sample_oracle(self):
        """Integration and carving interleaved on random opinions give the
        map the per-sample carving gives: same cells, same log-odds bits."""
        rng = np.random.default_rng(17)
        for _ in range(30):
            voxel_size = float(rng.choice([0.02, 0.05, 0.1]))
            state = MapState(voxel_size=voxel_size)
            model = OracleMap(voxel_size=voxel_size)
            instance_id = state.new_instance()
            model.new_instance()
            for _ in range(3):
                points = rng.uniform(-1, 1, (int(rng.integers(1, 40)), 3))
                origin, stride = rng.uniform(-3, 3, 3), int(rng.integers(1, 5))
                for target, integrate, carve in (
                    (state, integrate_geometric, carve_free_space),
                    (model, oracle_integrate, oracle_carve_free_space),
                ):
                    opinion = SubjectiveOpinion(
                        points=points, category="x", confidence=0.9, source_frame=0, pixel_bbox=None,
                        voxel_size=voxel_size,
                    )
                    integrate(opinion, instance_id, target)
                    carve(opinion, target, origin, stride)
            assert oracle_snapshot_dict(state) == model.to_dict()


class TestViewArchiving:
    def test_crops_written_and_logged(self, tmp_path):
        from voxeland.frames import (
            CameraIntrinsics,
            Frame,
            FrameRecord,
            Pose,
            PredictionInstance,
        )
        from voxeland.opinions import ClusteringParams

        width = height = 40
        rgb_path = tmp_path / "rgb.ppm"
        write_ppm(rgb_path, np.full((height, width, 3), 128, dtype=np.uint8))
        depth = np.full((height, width), 1000, dtype=np.uint16)
        mask = np.zeros((height, width), dtype=bool)
        mask[5:20, 5:20] = True
        intr = CameraIntrinsics(
            fx=100.0, fy=100.0, cx=20.0, cy=20.0, width=width, height=height, depth_scale=0.001
        )
        record = FrameRecord(
            frame_id=0,
            depth_path=None,
            predictions_path=None,
            pose=Pose(rotation=np.eye(3), translation=np.zeros(3)),
            intrinsics=intr,
            rgb_path=rgb_path,
        )
        frame = Frame(
            record=record,
            depth=depth,
            predictions=[PredictionInstance("chair", 0.9, mask)],
        )
        state = MapState(voxel_size=0.02)
        pipeline = Pipeline(
            state,
            clustering=ClusteringParams(0.08, 0.144, 4),
            view_store=tmp_path / "views",
        )
        pipeline.process_frame(frame)
        instance = next(r for r in state.instances.values() if r.category_evidence)
        assert instance.observations[0].view_path is not None
        stored = tmp_path / "views"
        crops = list(stored.iterdir())
        assert len(crops) == 1
        from voxeland.frames import read_ppm

        crop = read_ppm(crops[0])
        assert crop.shape == (15, 15, 3)
