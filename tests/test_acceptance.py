"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
The end-to-end and throughput tests generate their datasets on the fly and
are fully deterministic under the seeds fixed here.
"""

import json
import math
import time

import numpy as np
import pytest

from voxeland.cli import main
from voxeland.disambiguation import ArgmaxClient, MockClient, disambiguate_all
from voxeland.evaluation import precision_vs_entropy
from voxeland.evidence import expected_entropy
from voxeland.frames import load_frame, load_ground_truth, load_manifest
from voxeland.fusion import (
    STAGE_ASSOCIATION,
    STAGE_INTEGRATION,
    STAGE_OPINIONS,
    STAGE_REFINEMENT,
    AssociationConfig,
    Pipeline,
    integrate_geometric,
    refine,
)
from voxeland.opinions import ClusteringParams, SubjectiveOpinion, build_opinions, dbscan
from voxeland.synthetic import generate_synthetic, scene_from_spec
from voxeland.uncertainty import declare_categories, geometric_entropy_map
from voxeland.voxelmap import UNKNOWN_INSTANCE_ID, MapState

from maps import add_evidence
from oracles import (
    brute_force_dbscan,
    canonical_clustering,
    cells_of,
    check_storage,
    ios,
    iou,
    layer_dict,
    oracle_expected_entropy,
    oracle_voxel_category_distribution,
)


def verdict(name: str, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f} s)" if elapsed is not None else ""
    print(f"PASS: {name}{suffix}")


FIVE_BOX_SPEC = {
    "room": {"min": [-3, -3, 0], "max": [3, 3, 2.4]},
    "voxel_size": 0.02,
    "intrinsics": {
        "fx": 260.0, "fy": 260.0, "cx": 160.0, "cy": 120.0,
        "width": 320, "height": 240, "depth_scale": 0.001,
    },
    "objects": [
        {"id": "o1", "category": "chair", "min": [0.36, 0.36, 0.0], "max": [0.66, 0.66, 0.5]},
        {"id": "o2", "category": "table", "min": [-0.76, 0.20, 0.0], "max": [-0.34, 0.50, 0.34]},
        {"id": "o3", "category": "chair", "min": [-0.50, -0.76, 0.0], "max": [-0.20, -0.46, 0.5]},
        {"id": "o4", "category": "screen", "min": [0.34, -0.60, 0.0], "max": [0.56, -0.50, 0.42]},
        {"id": "o5", "category": "table", "min": [-0.18, -0.08, 0.0], "max": [0.20, 0.18, 0.26]},
    ],
    "trajectory": {
        "orbit": {"center": [0, 0, 0], "radius": 1.9, "height": 1.1, "frames": 40, "target": [0, 0, 0.25]}
    },
}


@pytest.fixture(scope="module")
def noiseless_run(tmp_path_factory):
    """synth + build + eval through the CLI, with wall-clock timing."""
    root = tmp_path_factory.mktemp("noiseless")
    spec_path = root / "scene.json"
    spec_path.write_text(json.dumps(FIVE_BOX_SPEC))
    dataset = root / "dataset"
    out = root / "out"
    report_path = root / "report.json"
    start = time.perf_counter()
    assert main(["synth", "--spec", str(spec_path), "--seed", "7", "--out", str(dataset)]) == 0
    assert main(["build", "--dataset", str(dataset), "--out", str(out)]) == 0
    assert (
        main(
            [
                "eval",
                "--snapshot", str(out / "map.vxl"),
                "--gt", str(dataset / "ground_truth.json"),
                "--out", str(report_path),
            ]
        )
        == 0
    )
    elapsed = time.perf_counter() - start
    return root, dataset, out, report_path, elapsed


def test_evidence_math_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    xs = np.concatenate(
        [
            rng.uniform(1e-3, 1.0, 250),
            rng.uniform(0.1, 100.0, 500),
            10 ** rng.uniform(0.0, 6.0, 250),
        ]
    )
    assert len(xs) == 1000
    # the 1000 masses in groups of one to four, each against the series oracle
    sizes = [1, 2, 3, 4] * 100
    groups = np.split(xs, np.cumsum(sizes)[:-1])
    values = expected_entropy(xs, sizes)
    worst = max(abs(value - oracle_expected_entropy(group.tolist())) for value, group in zip(values, groups))
    assert worst <= 1e-11, f"expected entropy deviates from the series oracle by {worst}"

    uniform, concentrated, balanced = expected_entropy([1.0, 1.0, 100.0, 1.0, 1e4, 1e4], [2, 2, 2])
    assert uniform == 1.0
    assert abs(concentrated - 0.0612611) <= 1e-6
    assert abs(balanced - math.log(2)) < 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"evidence oracle suite took {elapsed:.2f} s"
    verdict("evidence math oracle suite (expected entropy <= 1e-11 on 1000 masses)", elapsed)


def test_mixture_normalization_over_randomized_maps():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    labels = ["a", "b", "c", "d", "e"]
    checked = 0
    while checked < 10_000:
        state = MapState(voxel_size=0.02)
        ids = []
        for _ in range(int(rng.integers(1, 5))):
            instance_id = state.new_instance()
            ids.append(instance_id)
            n_labels = int(rng.integers(1, 4))
            chosen = rng.choice(labels, size=n_labels, replace=False)
            state.instances[instance_id].category_evidence = {
                str(label): float(rng.uniform(0.05, 5.0)) for label in chosen
            }
            for label in chosen:
                state.register_category(str(label))
        for v in range(50):
            key = (v, 0, 0)
            for instance_id in ids:
                if rng.random() < 0.6:
                    add_evidence(state, key, instance_id, int(rng.integers(1, 30)))
            if rng.random() < 0.5:
                add_evidence(state, key, UNKNOWN_INSTANCE_ID, int(rng.integers(1, 30)))
        for cell in cells_of(state).values():
            if not cell.instance_counts:
                continue
            dist = oracle_voxel_category_distribution(cell.instance_counts, state)
            total = sum(dist.values())
            assert abs(total - 1.0) <= 1e-9, f"voxel distribution sums to {total}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"normalization sweep took {elapsed:.2f} s"
    verdict(f"total-probability mixing normalized over {checked} randomized voxels", elapsed)


def test_dbscan_brute_force_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(1, 301))
        points = rng.uniform(-1, 1, (n, 3))
        eps = float(rng.uniform(0.05, 0.7))
        min_pts = int(rng.integers(1, 9))
        labels = dbscan(points, eps, min_pts)
        reference = brute_force_dbscan(points, eps, min_pts)
        mine = canonical_clustering(labels)
        assert np.array_equal(mine, canonical_clustering(reference)), f"trial {trial}: n={n} eps={eps} min_pts={min_pts}"
        # both number clusters by their smallest core point, so the ids agree too
        assert np.array_equal(labels, reference), f"trial {trial}: n={n} eps={eps} min_pts={min_pts}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"dbscan equivalence took {elapsed:.2f} s"
    verdict("dbscan identical to O(n^2) oracle on 100 random point sets", elapsed)


def _fixture_with_footprint(n_voxels, points):
    state = MapState(voxel_size=0.1)
    instance_id = state.new_instance()
    add_evidence(state, [(i, 0, 0) for i in range(n_voxels)], instance_id, 1)
    opinion = SubjectiveOpinion(
        points=np.asarray(points, dtype=float),
        category="x",
        confidence=0.9,
        source_frame=0,
        pixel_bbox=(0, 0, 1, 1),
        voxel_size=state.voxel_size,
    )
    return state, state.instances[instance_id], opinion


def _voxel_center(i, j=0, k=0, size=0.1):
    return [(i + 0.5) * size, (j + 0.5) * size, (k + 0.5) * size]


def test_association_properties():
    start = time.perf_counter()
    # worked example: overlap 6, 10 points, 8 voxels
    state, record, opinion = _fixture_with_footprint(
        8,
        [_voxel_center(0), _voxel_center(0), _voxel_center(1), _voxel_center(2),
         _voxel_center(3), _voxel_center(4),
         _voxel_center(90), _voxel_center(91), _voxel_center(92), _voxel_center(93)],
    )
    assert iou(opinion, record, state) == 0.5
    assert ios(opinion, record, state) == 0.75
    # worked example: partial view, overlap 7 of 7 points, 50 voxels
    state, record, opinion = _fixture_with_footprint(50, [_voxel_center(i) for i in range(7)])
    assert iou(opinion, record, state) == 0.14
    assert ios(opinion, record, state) == 1.0

    rng = np.random.default_rng(55)
    for _ in range(10_000):
        n_voxels = int(rng.integers(1, 25))
        n_points = int(rng.integers(1, 25))
        points = [
            _voxel_center(int(rng.integers(0, 35)), int(rng.integers(0, 2)))
            for _ in range(n_points)
        ]
        state, record, opinion = _fixture_with_footprint(n_voxels, points)
        assert ios(opinion, record, state) >= iou(opinion, record, state)
    elapsed = time.perf_counter() - start
    verdict("association: worked ratios exact, ios >= iou on 10^4 fixtures", elapsed)


def test_fusion_conservation_and_determinism(noiseless_run, tmp_path):
    start = time.perf_counter()
    root, dataset, out, report_path, _ = noiseless_run

    # point-mass conservation while re-integrating one frame
    records = load_manifest(dataset / "manifest.jsonl")
    state = MapState(voxel_size=0.02)
    pipeline = Pipeline(state, clustering=ClusteringParams(0.08, 0.144, 4))
    pipeline.process_frame(load_frame(records[0]))

    frame = load_frame(records[1])
    opinions = build_opinions(frame, ClusteringParams(0.08, 0.144, 4), voxel_size=0.02)
    fresh = state.new_instance()
    before = {
        key: dict(cell.instance_counts) for key, cell in cells_of(state).items()
    }
    integrate_geometric(opinions[0], fresh, state)
    gained = 0
    for key, cell in cells_of(state).items():
        for instance_id, count in cell.instance_counts.items():
            gained += count - before.get(key, {}).get(instance_id, 0)
    assert gained == len(opinions[0].points), "alpha increments must equal the point count"

    # refine preserves totals and is idempotent (overlapping fixture)
    merge_state = MapState(voxel_size=0.1)
    a, b = merge_state.new_instance(), merge_state.new_instance()
    for i in range(6):
        add_evidence(merge_state, (i, 0, 0), a, 2)
        add_evidence(merge_state, (i, 0, 0), b, 3)
    merge_state.instances[a].category_evidence = {"chair": 1.0, "bed": 0.5}
    merge_state.instances[b].category_evidence = {"chair": 0.25}
    alpha_before = sum(
        sum(cell.instance_counts.values()) for cell in cells_of(merge_state).values()
    )
    beta_before = sum(
        sum(r.category_evidence.values()) for r in merge_state.instances.values()
    )
    config = AssociationConfig()
    events = refine(merge_state, config)
    assert len(events) == 1
    alpha_after = sum(
        sum(cell.instance_counts.values()) for cell in cells_of(merge_state).values()
    )
    beta_after = sum(
        sum(r.category_evidence.values()) for r in merge_state.instances.values()
    )
    assert alpha_after == alpha_before
    assert beta_after == pytest.approx(beta_before, abs=1e-12)
    assert refine(merge_state, config) == []
    check_storage(merge_state)

    # byte-identical snapshots across two fresh runs of the same sequence
    def run_once(path):
        run_state = MapState(voxel_size=0.02)
        run_pipeline = Pipeline(
            run_state,
            clustering=ClusteringParams(0.08, 0.144, 4),
            association=AssociationConfig(),
        )
        for record in records:
            run_pipeline.process_frame(load_frame(record))
        declare_categories(run_state)
        run_state.save_snapshot(path)

    run_once(tmp_path / "run_a.vxl")
    run_once(tmp_path / "run_b.vxl")
    assert (tmp_path / "run_a.vxl").read_bytes() == (tmp_path / "run_b.vxl").read_bytes()
    elapsed = time.perf_counter() - start
    verdict("fusion conservation, refine idempotence, byte-identical reruns", elapsed)


def test_end_to_end_noiseless_oracle(noiseless_run):
    root, dataset, out, report_path, elapsed = noiseless_run
    assert elapsed < 60.0, f"synth+build+eval took {elapsed:.1f} s"

    report = json.loads(report_path.read_text())
    assert report["map_score"] == 1.0, f"expected exact mAP 1.0, got {report['map_score']}"
    assert set(report["per_class_ap"]) == {"chair", "table", "screen"}
    assert all(ap == 1.0 for ap in report["per_class_ap"].values())

    state = MapState.load_snapshot(out / "map.vxl")
    gt = load_ground_truth(dataset / "ground_truth.json")
    gt_by_id = {g.id: g for g in gt.instances}
    for match in report["matches"]:
        assert match["tp"], f"instance {match['instance_id']} is a false positive"
        assert match["category"] == gt_by_id[match["matched_gt"]].category
    declared = [r.final_category for r in state.instances.values() if not r.is_unknown]
    assert len(declared) == 5 and all(declared)

    layer = layer_dict(geometric_entropy_map(state))
    for key, cell in cells_of(state).items():
        if len(cell.instance_counts) == 1:
            assert layer[key] == 0.0
    verdict(f"end-to-end noiseless: mAP exactly 1.0 in {elapsed:.1f} s", elapsed)


def test_precision_entropy_trend_under_mislabeling(tmp_path_factory):
    start = time.perf_counter()
    root = tmp_path_factory.mktemp("trend")
    spec = dict(FIVE_BOX_SPEC)
    spec["noise"] = {
        "misclassification_rate": 0.3,
        "mislabel_target": "o1",
        "mislabel_as": "screen",
        "confidence": 0.4,
        "mislabel_confidence": 0.95,
    }

    def run(tag):
        dataset = root / f"dataset_{tag}"
        generate_synthetic(scene_from_spec(spec), seed=13, out_dir=dataset)
        records = load_manifest(dataset / "manifest.jsonl")
        state = MapState(voxel_size=0.02)
        pipeline = Pipeline(state, clustering=ClusteringParams(0.08, 0.144, 4))
        for record in records:
            pipeline.process_frame(load_frame(record))
        declare_categories(state)
        gt = load_ground_truth(dataset / "ground_truth.json")
        thresholds = [0.05, 0.2, 0.4, 0.6, 1.0, 2.0]
        return precision_vs_entropy(state, gt, thresholds)

    curve = run("a")
    assert curve, "curve must not be empty"
    h_low, precision_low = curve[0]
    h_max, precision_max = curve[-1]
    assert precision_low >= precision_max, (
        f"precision at h={h_low} ({precision_low}) must not be below "
        f"precision at h={h_max} ({precision_max})"
    )
    assert precision_low == 1.0, "clean low-entropy instances must all be correct"
    assert precision_max < 1.0, "the corrupted instance must degrade full-population precision"
    assert run("b") == curve, "curve must be deterministic under the fixed seed"
    elapsed = time.perf_counter() - start
    verdict(
        f"precision-vs-entropy trend: {precision_low:.2f} at {h_low} nats >= {precision_max:.2f} at {h_max} nats",
        elapsed,
    )


def test_split_evidence_mock_disambiguation():
    start = time.perf_counter()
    # total mass 10 (<= ~20): entropy must exceed the 0.5 nats trigger,
    # verified against the independent oracle before the fixture is used
    beta = {"bed": 4.8, "couch": 4.6, "chair": 0.6}
    oracle_entropy = oracle_expected_entropy(list(beta.values()))
    assert oracle_entropy >= 0.5, f"fixture entropy {oracle_entropy} too low to flag"

    def flagged_state():
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = dict(beta)
        for label in beta:
            state.register_category(label)
        for i in range(6):
            add_evidence(state, (i, 0, 0), instance_id, 3)
        decisions = declare_categories(state, entropy_threshold=0.5)
        assert decisions[0].flagged, "the split instance must be flagged"
        return state, instance_id

    state, instance_id = flagged_state()
    scripted = MockClient({str(instance_id): "The object category is couch"})
    report = disambiguate_all(state, scripted)
    assert [d.chosen_category for d in report.decisions] == ["couch"]
    assert state.instances[instance_id].final_category == "couch"
    assert state.instances[instance_id].category_evidence == beta, "evidence must not change"

    baseline_state, baseline_id = flagged_state()
    disambiguate_all(baseline_state, ArgmaxClient())
    assert baseline_state.instances[baseline_id].final_category == "bed"
    elapsed = time.perf_counter() - start
    verdict("split-evidence disambiguation: mock overrides argmax bed -> couch; identity mock = top-1", elapsed)


def test_throughput_floor(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput")
    spec = dict(FIVE_BOX_SPEC)
    spec["intrinsics"] = {
        "fx": 520.0, "fy": 520.0, "cx": 320.0, "cy": 240.0,
        "width": 640, "height": 480, "depth_scale": 0.001,
    }
    spec["trajectory"] = {
        "orbit": {"center": [0, 0, 0], "radius": 1.9, "height": 1.1, "frames": 200, "target": [0, 0, 0.25]}
    }
    dataset = root / "dataset"
    generate_synthetic(scene_from_spec(spec), seed=29, out_dir=dataset)

    records = load_manifest(dataset / "manifest.jsonl")
    assert len(records) == 200
    state = MapState(voxel_size=0.02)
    pipeline = Pipeline(state, clustering=ClusteringParams(0.08, 0.144, 4))
    start = time.perf_counter()
    for record in records:
        pipeline.process_frame(load_frame(record))
    wall = time.perf_counter() - start
    wall_hz = len(records) / wall

    report = pipeline.timer.report()
    for stage in (STAGE_OPINIONS, STAGE_ASSOCIATION, STAGE_INTEGRATION, STAGE_REFINEMENT):
        assert stage in report["stages"], f"timing report missing stage {stage!r}"
        print(f"  {stage}: {report['stages'][stage]['mean_ms']:.1f} ms mean")
    assert wall_hz >= 2.0, f"mapping ran at {wall_hz:.2f} Hz, below the 2 Hz floor"
    verdict(f"throughput floor: {wall_hz:.2f} Hz over 200 frames at 640x480", wall)
