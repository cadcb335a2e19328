import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.evaluation import (
    EvalConfig,
    average_precision,
    evaluate,
    match_to_ground_truth,
    precision_vs_entropy,
    predicted_instances,
)
from voxeland.frames import GroundTruthInstance, GroundTruthScene
from voxeland.uncertainty import declare_categories
from voxeland.voxelmap import MapState, pack_keys

from maps import add_evidence
from oracles import brute_force_average_precision, oracle_match_to_ground_truth, unpack_keys


def build_map(instance_specs):
    """instance_specs: list of (footprint keys, beta dict, final_category)."""
    state = MapState(voxel_size=0.02)
    ids = []
    for keys, beta, final in instance_specs:
        instance_id = state.new_instance()
        ids.append(instance_id)
        for key in keys:
            add_evidence(state, key, instance_id, 5)
        state.instances[instance_id].category_evidence = dict(beta)
        state.instances[instance_id].final_category = final
        for label in beta:
            state.register_category(label)
    return state, ids


def gt_scene(instances):
    return GroundTruthScene(
        voxel_size=0.02,
        instances=[
            GroundTruthInstance(id=f"g{i}", category=cat, keys=np.unique(pack_keys(np.array(keys))))
            for i, (keys, cat) in enumerate(instances)
        ],
    )


def block(x0, n=10):
    return [(x0 + i, 0, 0) for i in range(n)]


class TestAveragePrecision:
    def test_perfect_single(self):
        assert average_precision([True], 1) == 1.0

    def test_tp_then_fp(self):
        assert average_precision([True, False], 2) == 0.5

    def test_fp_then_tp(self):
        assert average_precision([False, True], 2) == 0.25

    def test_no_ground_truth_excluded(self):
        assert average_precision([False, False], 0) is None

    def test_empty_predictions_zero(self):
        assert average_precision([], 3) == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(0, 12))
            flags = [bool(rng.random() < 0.5) for _ in range(n)]
            num_gt = int(rng.integers(max(1, sum(flags)), 15))
            assert average_precision(flags, num_gt) == pytest.approx(
                brute_force_average_precision(flags, num_gt), abs=1e-12
            )


class TestMatching:
    def test_perfect_reconstruction(self):
        keys_a, keys_b = block(0), block(100)
        state, ids = build_map(
            [(keys_a, {"chair": 2.0}, "chair"), (keys_b, {"table": 2.0}, "table")]
        )
        gt = gt_scene([(keys_a, "chair"), (keys_b, "table")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert all(m.is_tp for m in matches)
        assert len(matches) == 2

    def test_wrong_final_category_is_fp_even_at_full_overlap(self):
        keys = block(0)
        state, ids = build_map([(keys, {"chair": 1.0, "bed": 0.9}, "bed")])
        gt = gt_scene([(keys, "chair")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert len(matches) == 1
        assert not matches[0].is_tp

    def test_duplicate_predictions_only_one_tp(self):
        keys = block(0)
        # two instances claiming the same object: argmax ownership assigns the
        # contested voxels to one of them, and the single gt matches once
        state, ids = build_map(
            [
                (keys, {"chair": 3.0, "other": 1.0}, "chair"),  # p = 0.75
                (keys, {"chair": 9.0, "other": 1.0}, "chair"),  # p = 0.9
            ]
        )
        gt = gt_scene([(keys, "chair")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert len(matches) == 2
        assert sum(1 for m in matches if m.is_tp) == 1
        assert sum(1 for m in matches if not m.is_tp) == 1

    def test_each_gt_matches_at_most_once(self):
        half_a = block(0, 10)
        half_b = block(5, 10)  # overlaps gt by half
        state, ids = build_map(
            [
                (half_a, {"chair": 9.0, "o": 1.0}, "chair"),
                (half_b, {"chair": 3.0, "o": 1.0}, "chair"),
            ]
        )
        gt = gt_scene([(block(0, 12), "chair")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert sum(1 for m in matches if m.is_tp) <= 1

    def test_equal_confidence_ties_rank_by_lower_id(self):
        keys_a, keys_b = block(0), block(100)
        state, ids = build_map(
            [(keys_a, {"chair": 2.0}, "chair"), (keys_b, {"chair": 2.0}, "chair")]
        )
        gt = gt_scene([(keys_a, "chair"), (keys_b, "chair")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert [m.instance_id for m in matches] == sorted(ids)

    def test_iou_threshold_gate(self):
        # footprint covers 5 of 15 gt voxels: IoU = 5/15 = 1/3 < 0.5
        state, ids = build_map([(block(0, 5), {"chair": 2.0}, "chair")])
        gt = gt_scene([(block(0, 15), "chair")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt, EvalConfig(iou_threshold=0.5))
        assert not matches[0].is_tp
        loose = match_to_ground_truth(state, predicted_instances(state), gt, EvalConfig(iou_threshold=0.2))
        assert loose[0].is_tp

    def test_no_config_is_the_default_config(self):
        # IoU 1/3 (below the default 0.5) and IoU exactly 0.5 (at it)
        state, ids = build_map(
            [(block(0, 5), {"chair": 2.0}, "chair"), (block(100, 3), {"table": 1.0}, "table")]
        )
        gt = gt_scene([(block(0, 15), "chair"), (block(101, 3), "table")])
        matches = match_to_ground_truth(state, predicted_instances(state), gt)
        assert matches == match_to_ground_truth(state, predicted_instances(state), gt, EvalConfig())
        assert [(m.instance_id, m.iou, m.is_tp) for m in matches] == [(ids[0], pytest.approx(1 / 3), False), (ids[1], 0.5, True)]


GRID = [(i, j, k) for i in range(3) for j in range(3) for k in range(2)]
CATEGORIES = ["chair", "table", "lamp"]


@st.composite
def maps_with_ground_truth(draw):
    """1-8 instances on an 18-voxel grid, sharing voxels with each other, the
    unknown instance and the ground truth.  Masses come from a few values, so
    confidences tie and IoUs land on the thresholds; an instance may have no
    category evidence, no voxel it owns by argmax, or a final category that
    differs from its evidence or from every ground-truth category.  Ground
    truth may list the same voxels under two ids."""
    state = MapState(voxel_size=0.02)
    for key in draw(st.lists(st.sampled_from(GRID), max_size=6, unique=True)):
        add_evidence(state, key, 0, draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 8))):
        record = state.instances[state.new_instance()]
        for key in draw(st.lists(st.sampled_from(GRID), max_size=8, unique=True)):
            add_evidence(state, key, record.id, draw(st.integers(1, 3)))
        masses = st.sampled_from([0.5, 1.0, 2.0])
        record.category_evidence = draw(st.dictionaries(st.sampled_from(CATEGORIES), masses, max_size=2))
        record.final_category = draw(st.none() | st.sampled_from(CATEGORIES))
        for label in record.category_evidence:
            state.register_category(label)
    truth = []
    for _ in range(draw(st.integers(1, 4))):
        # a ground-truth instance may repeat another's voxels, so IoUs tie across them
        if truth and draw(st.booleans()):
            voxels = draw(st.sampled_from(truth))[0]
        else:
            voxels = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=8, unique=True))
        truth.append((voxels, draw(st.sampled_from(CATEGORIES[:2]))))
    threshold = draw(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 1.0]))
    return state, gt_scene(truth), EvalConfig(iou_threshold=threshold)


class TestMatchAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(maps_with_ground_truth())
    def test_equals_set_based_matching(self, case):
        state, gt, config = case
        matches = match_to_ground_truth(state, predicted_instances(state), gt, config)
        expected = oracle_match_to_ground_truth(state, gt, config)
        assert matches == expected
        assert [m.iou.hex() for m in matches] == [m.iou.hex() for m in expected]

    def test_iou_exactly_at_threshold_is_a_match(self):
        # 2 shared voxels of a union of 4: IoU is exactly 0.5
        state, _ = build_map([(block(0, 3), {"chair": 1.0}, None)])
        gt = gt_scene([(block(1, 3), "chair")])
        (match,) = match_to_ground_truth(state, predicted_instances(state), gt, EvalConfig(iou_threshold=0.5))
        assert match.iou == 0.5 and match.is_tp
        assert [match] == oracle_match_to_ground_truth(state, gt, EvalConfig(iou_threshold=0.5))



class TestVoxelSizeMismatch:
    """Ground truth at another voxel size indexes other voxels, so every
    entry point rejects it instead of reporting no overlap."""

    @pytest.mark.parametrize(
        "entry",
        [
            lambda state, gt: match_to_ground_truth(state, predicted_instances(state), gt),
            evaluate,
            lambda state, gt: precision_vs_entropy(state, gt, [2.0]),
        ],
        ids=["match_to_ground_truth", "evaluate", "precision_vs_entropy"],
    )
    def test_rejected_naming_both_sizes(self, entry):
        keys = block(0)
        state, _ = build_map([(keys, {"chair": 5.0}, "chair")])
        gt = dataclasses.replace(gt_scene([(keys, "chair")]), voxel_size=0.04)
        with pytest.raises(ValueError, match=r"voxel size 0\.04 is not the map's 0\.02"):
            entry(state, gt)


class TestEvaluate:
    def test_map_is_mean_of_present_class_aps(self):
        keys_a, keys_b = block(0), block(100)
        state, ids = build_map(
            [(keys_a, {"chair": 2.0}, "chair"), (keys_b, {"table": 2.0}, "table")]
        )
        gt = gt_scene([(keys_a, "chair"), (keys_b, "table")])
        report = evaluate(state, gt)
        assert report.per_class_ap == {"chair": 1.0, "table": 1.0}
        assert report.map_score == 1.0

    def test_class_without_gt_excluded(self):
        keys = block(0)
        state, ids = build_map([(keys, {"lamp": 2.0}, "lamp")])
        gt = gt_scene([(keys, "chair")])
        report = evaluate(state, gt, EvalConfig(classes=["chair", "lamp"]))
        assert "lamp" not in report.per_class_ap
        assert report.per_class_ap["chair"] == 0.0

    def test_missed_class_scores_zero(self):
        keys = block(0)
        state, _ = build_map([])
        gt = gt_scene([(keys, "chair")])
        report = evaluate(state, gt)
        assert report.per_class_ap == {"chair": 0.0}
        assert report.map_score == 0.0

    def test_report_round_trips_to_json(self, tmp_path):
        keys = block(0)
        state, _ = build_map([(keys, {"chair": 2.0}, "chair")])
        gt = gt_scene([(keys, "chair")])
        report = evaluate(state, gt, timing={"stages": {}})
        report.save(tmp_path / "report.json")
        import json

        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["map_score"] == 1.0

    def test_reports_byte_identical_across_runs(self, tmp_path):
        # evaluation itself is deterministic; wall-clock timing is the one
        # field excluded from the byte-identity claim
        keys_a, keys_b = block(0), block(100)
        state, _ = build_map(
            [(keys_a, {"chair": 2.0}, "chair"), (keys_b, {"table": 2.0}, "table")]
        )
        gt = gt_scene([(keys_a, "chair"), (keys_b, "table")])
        evaluate(state, gt).save(tmp_path / "a.json")
        evaluate(state, gt).save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestPredictedInstances:
    def test_argmax_ownership_excludes_unknown_voxels(self):
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"chair": 1.0}
        state.register_category("chair")
        add_evidence(state, (0, 0, 0), instance_id, 5)
        add_evidence(state, (1, 0, 0), instance_id, 1)
        add_evidence(state, (1, 0, 0), 0, 9)  # unknown dominates
        predictions = predicted_instances(state)
        assert unpack_keys(predictions[0].keys) == [(0, 0, 0)]

    def test_final_category_fallback_is_argmax(self):
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"chair": 2.0, "bed": 1.0}
        add_evidence(state, (0, 0, 0), instance_id, 5)
        predictions = predicted_instances(state)
        assert predictions[0].category == "chair"
        assert predictions[0].confidence == pytest.approx(2.0 / 3.0)

    def test_instances_without_category_evidence_skipped(self):
        state = MapState(voxel_size=0.02)
        bare = state.new_instance()
        add_evidence(state, (0, 0, 0), bare, 5)
        assert predicted_instances(state) == []


class TestPrecisionVsEntropy:
    def build_corrupted(self):
        keys_good_a, keys_good_b, keys_bad = block(0), block(100), block(200)
        state, ids = build_map(
            [
                (keys_good_a, {"chair": 5.0}, "chair"),
                (keys_good_b, {"table": 5.0}, "table"),
                # split evidence, wrong argmax: declared bed but truly a couch
                (keys_bad, {"bed": 2.6, "couch": 2.4}, "bed"),
            ]
        )
        gt = gt_scene([(keys_good_a, "chair"), (keys_good_b, "table"), (keys_bad, "couch")])
        return state, gt

    def test_all_correct_gives_constant_curve(self):
        keys = block(0)
        state, _ = build_map([(keys, {"chair": 5.0}, "chair")])
        gt = gt_scene([(keys, "chair")])
        points = precision_vs_entropy(state, gt, [0.1, 0.5, 1.0])
        assert [p for _, p in points] == [1.0, 1.0, 1.0]

    def test_corrupted_instance_degrades_tail(self):
        state, gt = self.build_corrupted()
        points = precision_vs_entropy(state, gt, [0.05, 2.0])
        assert points[0] == (0.05, 1.0)
        assert points[-1][1] == pytest.approx(2.0 / 3.0)
        assert points[0][1] >= points[-1][1]

    def test_ranks_by_the_expected_entropy_that_flags(self):
        """Even splits of 1 + 1 and 50 + 50 have the same Shannon entropy, ln 2,
        but expected entropies of 1.0 and about 0.698 nats: at 0.8 only the
        better-evidenced instance is admitted."""
        sparse, dense = block(0), block(100)
        state, (sparse_id, dense_id) = build_map(
            [(sparse, {"a": 1.0, "b": 1.0}, "a"), (dense, {"a": 50.0, "b": 50.0}, "a")]
        )
        gt = gt_scene([(sparse, "b"), (dense, "a")])
        entropies = {p.instance_id: p.semantic_entropy for p in predicted_instances(state)}
        assert entropies[sparse_id] == 1.0
        assert entropies[dense_id] == pytest.approx(0.698, abs=1e-3)
        assert [decision.flagged for decision in declare_categories(state, 0.8)] == [True, False]
        assert precision_vs_entropy(state, gt, [0.8, 2.0]) == [(0.8, 1.0), (2.0, 0.5)]

    def test_owner_table_built_once(self, monkeypatch):
        state, gt = self.build_corrupted()
        built = []
        owner_table = MapState.owner_table
        monkeypatch.setattr(MapState, "owner_table", lambda self: built.append(1) or owner_table(self))
        assert precision_vs_entropy(state, gt, [2.0]) == [(2.0, pytest.approx(2.0 / 3.0))]
        assert len(built) == 1

    def test_thresholds_below_all_entropies_give_empty_curve(self):
        state, gt = self.build_corrupted()
        assert precision_vs_entropy(state, gt, [0.0]) == []
