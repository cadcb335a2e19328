import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland import fusion
from voxeland.config import PipelineConfig
from voxeland.evidence import probabilities
from voxeland.frames import (
    CameraIntrinsics,
    Frame,
    FrameRecord,
    Pose,
    PredictionInstance,
    crop_bbox,
    encode_rle_mask,
    read_ppm,
    write_ppm,
)
from voxeland.fusion import (
    STAGE_ASSOCIATION,
    STAGE_INTEGRATION,
    STAGE_OPINIONS,
    STAGE_REFINEMENT,
    AssociationConfig,
    AssociationOutcome,
    FrameReport,
    FrameReports,
    MergeEvent,
    Pipeline,
    associate,
    carve_free_space,
    integrate_geometric,
    integrate_semantic,
    refine,
)
from voxeland.frames import load_frame, load_manifest
from voxeland.opinions import UNKNOWN_CATEGORY, ClusteringParams, SubjectiveOpinion, build_opinions
from voxeland.synthetic import NoiseSpec, SceneObject, SyntheticScene, generate_synthetic, orbit_trajectory
from voxeland.voxelmap import UNKNOWN_INSTANCE_ID, MapState, Observation, OccupancyParams, unpack_keys

from maps import add_evidence
from oracles import (
    OracleMap,
    cells_of,
    check_storage,
    intersection_count,
    ios,
    iou,
    oracle_associate,
    oracle_carve_free_space,
    oracle_integrate,
    oracle_integrate_semantic,
    oracle_refine,
    oracle_snapshot_dict,
    oracle_voxel_counts,
)

VOXEL = 0.1
CFG = AssociationConfig()


def center(i, j=0, k=0):
    return np.array([(i + 0.5) * VOXEL, (j + 0.5) * VOXEL, (k + 0.5) * VOXEL])


def opinion(points, category="chair", confidence=0.9, frame=0, voxel_size=VOXEL):
    return SubjectiveOpinion(
        points=np.asarray(points, dtype=float),
        category=category,
        confidence=confidence,
        source_frame=frame,
        pixel_bbox=None if category == UNKNOWN_CATEGORY else (0, 0, 1, 1),
        voxel_size=voxel_size,
    )


def state_with_instance(n_voxels):
    """Map with one instance occupying voxels (0..n_voxels-1, 0, 0)."""
    state = MapState(voxel_size=VOXEL)
    instance_id = state.new_instance()
    for i in range(n_voxels):
        add_evidence(state, (i, 0, 0), instance_id, 1)
    return state, instance_id


class TestOverlapScores:
    def test_intersection_counts_points_not_voxels(self):
        state, instance_id = state_with_instance(8)
        # 6 points inside instance voxels (several sharing one voxel), 4 outside
        inside = [center(0), center(0), center(1), center(2), center(3), center(4)]
        outside = [center(50), center(51), center(52), center(53)]
        op = opinion(inside + outside)
        assert intersection_count(op, state.instances[instance_id], state) == 6

    def test_zero_footprint_instance(self):
        state, _ = state_with_instance(1)
        empty = state.new_instance()
        op = opinion([center(0)])
        assert intersection_count(op, state.instances[empty], state) == 0

    def test_all_points_inside_is_upper_bound(self):
        state, instance_id = state_with_instance(8)
        op = opinion([center(i % 8) for i in range(5)])
        assert intersection_count(op, state.instances[instance_id], state) == 5

    def test_worked_example_point_majority(self):
        state, instance_id = state_with_instance(8)
        inside = [center(0), center(0), center(1), center(2), center(3), center(4)]
        outside = [center(50), center(51), center(52), center(53)]
        op = opinion(inside + outside)
        record = state.instances[instance_id]
        assert iou(op, record, state) == 0.5
        assert ios(op, record, state) == 0.75

    def test_worked_example_partial_view(self):
        state, instance_id = state_with_instance(50)
        op = opinion([center(i) for i in range(7)])
        record = state.instances[instance_id]
        assert iou(op, record, state) == pytest.approx(0.14)
        assert ios(op, record, state) == 1.0

    def test_disjoint_is_zero(self):
        state, instance_id = state_with_instance(8)
        op = opinion([center(90), center(91)])
        record = state.instances[instance_id]
        assert iou(op, record, state) == 0.0
        assert ios(op, record, state) == 0.0

    def test_ios_dominates_iou_on_random_fixtures(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            state = MapState(voxel_size=VOXEL)
            instance_id = state.new_instance()
            for i in range(int(rng.integers(1, 30))):
                add_evidence(state, (i, 0, 0), instance_id, 1)
            points = [
                center(int(rng.integers(0, 40)), int(rng.integers(0, 2)))
                for _ in range(int(rng.integers(1, 40)))
            ]
            op = opinion(points)
            record = state.instances[instance_id]
            assert ios(op, record, state) >= iou(op, record, state)


class TestAssociate:
    def test_match_above_iou_threshold(self):
        state, instance_id = state_with_instance(8)
        inside = [center(0), center(0), center(1), center(2), center(3), center(4)]
        outside = [center(50), center(51), center(52), center(53)]
        outcome = associate([opinion(inside + outside)], state, CFG)
        assert outcome.matches == [(0, instance_id, 0.5, 0.75)]
        assert outcome.spawned == []

    def test_ios_rescues_partial_view(self):
        state, instance_id = state_with_instance(50)
        outcome = associate([opinion([center(i) for i in range(7)])], state, CFG)
        assert len(outcome.matches) == 1
        index, matched_id, got_iou, got_ios = outcome.matches[0]
        assert matched_id == instance_id
        assert got_iou == pytest.approx(0.14)
        assert got_ios == 1.0

    def test_spawn_when_both_thresholds_fail(self):
        # overlap 3 points, 10 points total, 23 instance voxels:
        # iou = 3/30 = 0.1, ios = 3/10 = 0.3
        state, instance_id = state_with_instance(23)
        points = [center(0), center(1), center(2)] + [center(100 + i) for i in range(7)]
        outcome = associate([opinion(points)], state, CFG)
        assert outcome.matches == []
        assert len(outcome.spawned) == 1
        assert outcome.spawned[0][0] == 0
        assert outcome.spawned[0][1] not in (UNKNOWN_INSTANCE_ID, instance_id)

    def test_unknown_goes_to_instance_zero(self):
        state, _ = state_with_instance(8)
        ops = [opinion([center(0)], category=UNKNOWN_CATEGORY)]
        outcome = associate(ops, state, CFG)
        assert outcome.matches[0][:2] == (0, UNKNOWN_INSTANCE_ID)

    def test_unknown_instance_never_candidate_for_semantic(self):
        state = MapState(voxel_size=VOXEL)
        for i in range(10):
            add_evidence(state, (i, 0, 0), UNKNOWN_INSTANCE_ID, 5)
        outcome = associate([opinion([center(i) for i in range(10)])], state, CFG)
        assert outcome.matches == []
        assert len(outcome.spawned) == 1

    def test_best_iou_wins_among_passing(self):
        state = MapState(voxel_size=VOXEL)
        a = state.new_instance()
        b = state.new_instance()
        for i in range(10):
            add_evidence(state, (i, 0, 0), a, 1)
        for i in range(10):
            add_evidence(state, (i, 1, 0), b, 1)
        # 8 points on a, 10 on b
        points = [center(i, 0) for i in range(8)] + [center(i, 1) for i in range(10)]
        outcome = associate([opinion(points)], state, CFG)
        assert len(outcome.matches) == 1
        assert outcome.matches[0][1] == b


def voxel_point(cells):
    """Points anywhere inside voxels drawn from ``cells``."""
    offset = st.floats(0.0, 0.999)
    return st.tuples(cells, offset, offset, offset).map(
        lambda c: [(c[0][axis] + c[axis + 1]) * VOXEL for axis in range(3)]
    )


GRID_CELL = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def association_cases(draw):
    """A map of 1-4 instances whose footprints share a small pool of cells
    around the origin (negative keys included), opinions whose points fall in
    pool cells or anywhere on the grid, dense enough that both scores clamp at
    1, and random thresholds."""
    state = MapState(voxel_size=VOXEL)
    pool = draw(st.lists(GRID_CELL, min_size=1, max_size=12, unique=True))
    for _ in range(draw(st.integers(1, 4))):
        instance_id = state.new_instance()
        for key in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True)):
            add_evidence(state, key, instance_id, draw(st.integers(1, 3)))
    point = voxel_point(st.one_of(st.sampled_from(pool), GRID_CELL))
    opinions = [
        opinion(points)
        for points in draw(st.lists(st.lists(point, min_size=1, max_size=30), min_size=1, max_size=3))
    ]
    threshold = st.floats(0.0, 1.0, exclude_min=True)
    config = AssociationConfig(tau_iou=draw(threshold), tau_ios=draw(threshold))
    return state, opinions, config


class TestAssociateMatchesOracle:
    @given(association_cases())
    @settings(max_examples=200, deadline=None)
    def test_scores_equal_oracle(self, case):
        state, opinions, config = case
        candidates = [i for i in state.instances if i != UNKNOWN_INSTANCE_ID]
        outcome = associate(opinions, state, config)
        for index, instance_id, score_iou, score_ios in outcome.matches:
            record = state.instances[instance_id]
            assert (score_iou, score_ios) == (
                iou(opinions[index], record, state),
                ios(opinions[index], record, state),
            )
        for index, _ in outcome.spawned:
            for instance_id in candidates:
                record = state.instances[instance_id]
                assert iou(opinions[index], record, state) < config.tau_iou
                assert ios(opinions[index], record, state) < config.tau_ios


FAR_CELL = st.tuples(st.integers(6, 8), st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def association_frames(draw):
    """A map of 1-5 instances on a small pool of cells around the origin, some
    with the footprint of an earlier one (other counts), so that equal scores
    tie, and evidence of the unknown instance; then one frame of 1-5
    opinions.  An opinion is unknown, falls on pool or grid cells, has a
    point in every instance's footprint, or lies on far cells no instance
    owns, so it spawns an instance that later opinions must not match."""
    state = MapState(voxel_size=VOXEL)
    pool = draw(st.lists(GRID_CELL, min_size=1, max_size=10, unique=True))
    footprints = []
    for _ in range(draw(st.integers(1, 5))):
        instance_id = state.new_instance()
        if footprints and draw(st.booleans()):
            keys = draw(st.sampled_from(footprints))
        else:
            keys = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10, unique=True))
        footprints.append(keys)
        for key in keys:
            add_evidence(state, key, instance_id, draw(st.integers(1, 3)))
    for key in draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)):
        add_evidence(state, key, UNKNOWN_INSTANCE_ID, draw(st.integers(1, 3)))
    every = [key for keys in footprints for key in keys]
    kinds = {
        "near": st.lists(voxel_point(st.one_of(st.sampled_from(pool), GRID_CELL)), min_size=1, max_size=30),
        "every": st.lists(voxel_point(st.sampled_from(every)), max_size=10).map(
            lambda extra: [center(*key) for key in every] + extra
        ),
        "far": st.lists(voxel_point(FAR_CELL), min_size=1, max_size=10),
        "unknown": st.lists(voxel_point(GRID_CELL), min_size=1, max_size=10),
    }
    opinions = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5)):
        points = draw(kinds[kind])
        opinions.append(opinion(points, category=UNKNOWN_CATEGORY if kind == "unknown" else "chair"))
    threshold = st.floats(0.0, 1.0, exclude_min=True)
    config = AssociationConfig(tau_iou=draw(threshold), tau_ios=draw(threshold))
    return state, opinions, config


class TestAssociateMatchesPerCandidateOracle:
    """associate against the per-candidate reference: the same matches with
    bit-equal scores, and the same spawned indices and ids."""

    @given(association_frames())
    @settings(max_examples=300, deadline=None)
    def test_random_frames(self, case):
        state, opinions, config = case
        reference = copy.deepcopy(state)
        assert associate(opinions, state, config) == oracle_associate(opinions, reference, config)
        assert state._next_instance_id == reference._next_instance_id

    def test_equal_scores_go_to_the_lower_id(self):
        state = MapState(voxel_size=VOXEL)
        ids = [state.new_instance() for _ in range(3)]
        for instance_id, count in zip(ids, (2, 1, 3)):
            for i in range(4):
                add_evidence(state, (i, 0, 0), instance_id, count)
        ops = [opinion([center(i) for i in range(4)]), opinion([center(i) for i in range(2)])]
        reference = copy.deepcopy(state)
        outcome = associate(ops, state, CFG)
        assert outcome == oracle_associate(ops, reference, CFG)
        assert outcome.matches == [(0, ids[0], 1.0, 1.0), (1, ids[0], 0.5, 1.0)]

    def test_no_overlap_spawns_and_every_overlap_scores_all(self):
        state = MapState(voxel_size=VOXEL)
        ids = [state.new_instance() for _ in range(3)]
        for n, instance_id in enumerate(ids):
            for i in range(3 * n, 3 * n + 5):
                add_evidence(state, (i, 0, 0), instance_id, 1)
        ops = [
            opinion([center(50), center(51)]),
            opinion([center(i) for i in range(11)]),
            opinion([center(52)]),
            opinion([center(0)], category=UNKNOWN_CATEGORY),
        ]
        reference = copy.deepcopy(state)
        config = AssociationConfig(tau_iou=0.3, tau_ios=0.9)
        outcome = associate(ops, state, config)
        assert outcome == oracle_associate(ops, reference, config)
        # the second opinion scores (5/11, 1) on all three and the lowest id
        # wins; instance 4, spawned by the first opinion, owns no voxel and is
        # never a candidate
        assert outcome.matches == [(1, ids[0], 5 / 11, 1.0), (3, UNKNOWN_INSTANCE_ID, 0.0, 0.0)]
        assert outcome.spawned == [(0, 4), (2, 5)]


@st.composite
def integration_cases(draw):
    """Opinion sequences on a small grid around the origin; instances repeat,
    hits may lower the log-odds (p_hit below 0.5), and the band is narrow
    enough for repeated hits to clamp at either end."""
    n_instances = draw(st.integers(0, 3))
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, n_instances), st.lists(voxel_point(GRID_CELL), min_size=1, max_size=25)),
            min_size=1,
            max_size=8,
        )
    )
    occupancy = OccupancyParams(
        p_hit=draw(st.floats(0.1, 0.9)),
        log_odds_min=draw(st.floats(-3.5, -0.5)),
        log_odds_max=draw(st.floats(0.5, 3.5)),
    )
    return n_instances, steps, occupancy


class TestIntegrateMatchesOracle:
    @given(integration_cases())
    @settings(max_examples=200, deadline=None)
    def test_random_opinion_sequences(self, case):
        n_instances, steps, occupancy = case
        state = MapState(voxel_size=VOXEL, occupancy=occupancy)
        reference = OracleMap(voxel_size=VOXEL, occupancy=occupancy)
        for _ in range(n_instances):
            state.new_instance()
            reference.new_instance()
        for instance_id, points in steps:
            integrate_geometric(opinion(points), instance_id, state)
            oracle_integrate(opinion(points), instance_id, reference)
        assert unpack_keys(state.cells.keys) == sorted(reference.cells)
        assert oracle_snapshot_dict(state) == reference.to_dict()
        check_storage(state)

    def test_unregistered_instance_rejected(self):
        state = MapState(voxel_size=VOXEL)
        with pytest.raises(KeyError, match="not registered"):
            integrate_geometric(opinion([center(0)]), 7, state)
        assert len(state.cells) == 0


class TestIntegrateGeometric:
    def test_points_in_one_voxel(self):
        state, instance_id = state_with_instance(1)
        before = cells_of(state)[(0, 0, 0)].instance_counts[instance_id]
        integrate_geometric(opinion([center(0)] * 3), instance_id, state)
        assert cells_of(state)[(0, 0, 0)].instance_counts[instance_id] == before + 3

    def test_point_mass_conserved_across_voxels(self):
        state = MapState(voxel_size=VOXEL)
        instance_id = state.new_instance()
        points = [center(0), center(1), center(1), center(2), center(3)]
        integrate_geometric(opinion(points), instance_id, state)
        total = sum(
            cell.instance_counts.get(instance_id, 0) for cell in cells_of(state).values()
        )
        assert total == len(points)
        assert state.instances[instance_id].voxel_count == 4

    def test_occupancy_hit_once_per_voxel(self):
        state = MapState(voxel_size=VOXEL)
        instance_id = state.new_instance()
        integrate_geometric(opinion([center(0)] * 10), instance_id, state)
        assert cells_of(state)[(0, 0, 0)].log_odds == pytest.approx(
            state.occupancy.l_hit, abs=1e-12
        )

    def test_spawned_instance_expands_cells(self):
        state, existing = state_with_instance(1)
        fresh = state.new_instance()
        integrate_geometric(opinion([center(0)]), fresh, state)
        assert cells_of(state)[(0, 0, 0)].instance_counts == {existing: 1, fresh: 1}


class TestIntegrateSemantic:
    def test_first_category(self):
        state, instance_id = state_with_instance(1)
        integrate_semantic(opinion([center(0)], "chair", 0.9), instance_id, state)
        assert state.instances[instance_id].category_evidence == {"chair": 0.9}
        assert "chair" in state.categories

    def test_accumulation(self):
        state, instance_id = state_with_instance(1)
        integrate_semantic(opinion([center(0)], "chair", 0.9), instance_id, state)
        integrate_semantic(opinion([center(0)], "chair", 0.8), instance_id, state)
        assert state.instances[instance_id].category_evidence["chair"] == pytest.approx(1.7)

    def test_category_expansion_probability(self):
        state, instance_id = state_with_instance(1)
        integrate_semantic(opinion([center(0)], "chair", 0.9), instance_id, state)
        integrate_semantic(opinion([center(0)], "chair", 0.8), instance_id, state)
        integrate_semantic(opinion([center(0)], "table", 0.6), instance_id, state)
        dist = probabilities(state.instances[instance_id].category_evidence)
        assert dist["chair"] == pytest.approx(1.7 / 2.3)

    def test_unknown_instance_rejected(self):
        state = MapState(voxel_size=VOXEL)
        with pytest.raises(ValueError):
            integrate_semantic(opinion([center(0)], "chair", 0.9), UNKNOWN_INSTANCE_ID, state)

    def test_observation_log_appended(self):
        state, instance_id = state_with_instance(1)
        integrate_semantic(opinion([center(0)], "chair", 0.9, frame=7), instance_id, state)
        log = state.instances[instance_id].observations
        assert len(log) == 1
        assert log[0].frame_id == 7 and log[0].category == "chair"


def two_instance_state(footprint_a, footprint_b, beta_a=None, beta_b=None):
    state = MapState(voxel_size=VOXEL)
    a = state.new_instance()
    b = state.new_instance()
    for key in footprint_a:
        add_evidence(state, key, a, 2)
    for key in footprint_b:
        add_evidence(state, key, b, 3)
    state.instances[a].category_evidence = dict(beta_a or {"chair": 1.0})
    state.instances[b].category_evidence = dict(beta_b or {"chair": 0.5})
    for label in list(state.instances[a].category_evidence) + list(
        state.instances[b].category_evidence
    ):
        state.register_category(label)
    return state, a, b


class TestRefine:
    def test_identical_footprints_merge(self):
        keys = [(i, 0, 0) for i in range(5)]
        state, a, b = two_instance_state(keys, keys)
        events = refine(state, CFG)
        assert events == [MergeEvent(kept_id=a, retired_id=b, iou=1.0, ios=1.0)]
        assert b not in state.instances
        assert state.instances[a].voxel_count == 5
        assert cells_of(state)[(0, 0, 0)].instance_counts == {a: 5}
        assert state.instances[a].category_evidence == {"chair": 1.5}
        check_storage(state)

    def test_disjoint_instances_untouched(self):
        state, a, b = two_instance_state(
            [(i, 0, 0) for i in range(5)], [(i, 9, 0) for i in range(5)]
        )
        assert refine(state, CFG) == []
        assert a in state.instances and b in state.instances

    def test_chain_collapses_transitively(self):
        # A overlaps B, B overlaps C, A and C disjoint
        a_keys = [(i, 0, 0) for i in range(0, 10)]
        b_keys = [(i, 0, 0) for i in range(7, 17)]
        c_keys = [(i, 0, 0) for i in range(14, 24)]
        state = MapState(voxel_size=VOXEL)
        ids = [state.new_instance() for _ in range(3)]
        for keys, instance_id in zip((a_keys, b_keys, c_keys), ids):
            for key in keys:
                add_evidence(state, key, instance_id, 1)
            state.instances[instance_id].category_evidence = {"chair": 1.0}
        # pairwise oracle: IoU(A,B) = 3/17 fails, IoS(A,B) = 0.3 fails at 0.7;
        # use looser thresholds so adjacent pairs pass and closure collapses all
        config = AssociationConfig(tau_iou=0.15, tau_ios=0.3, refine_every=30)
        events = refine(state, config)
        assert len(events) == 2
        assert set(state.instances) == {UNKNOWN_INSTANCE_ID, ids[0]}
        assert state.instances[ids[0]].voxel_count == 24
        check_storage(state)

    def test_idempotent(self):
        keys = [(i, 0, 0) for i in range(5)]
        state, a, b = two_instance_state(keys, keys)
        assert len(refine(state, CFG)) == 1
        assert refine(state, CFG) == []

    def test_merge_preserves_evidence_totals(self):
        keys = [(i, 0, 0) for i in range(5)]
        state, a, b = two_instance_state(
            keys, keys, beta_a={"chair": 1.0, "table": 0.5}, beta_b={"table": 0.25}
        )
        alpha_total_before = sum(
            sum(c for i, c in cell.instance_counts.items() if i != UNKNOWN_INSTANCE_ID)
            for cell in cells_of(state).values()
        )
        beta_total_before = sum(
            sum(r.category_evidence.values()) for r in state.instances.values()
        )
        refine(state, CFG)
        alpha_total_after = sum(
            sum(c for i, c in cell.instance_counts.items() if i != UNKNOWN_INSTANCE_ID)
            for cell in cells_of(state).values()
        )
        beta_total_after = sum(
            sum(r.category_evidence.values()) for r in state.instances.values()
        )
        assert alpha_total_after == alpha_total_before
        assert beta_total_after == pytest.approx(beta_total_before)

    def test_unknown_never_merges(self):
        state = MapState(voxel_size=VOXEL)
        a = state.new_instance()
        for i in range(5):
            add_evidence(state, (i, 0, 0), a, 1)
            add_evidence(state, (i, 0, 0), UNKNOWN_INSTANCE_ID, 9)
        state.instances[a].category_evidence = {"chair": 1.0}
        assert refine(state, CFG) == []
        assert UNKNOWN_INSTANCE_ID in state.instances


@st.composite
def refine_cases(draw):
    """A random map (up to 12 instances, cells with 1-4 owners that may include
    the unknown instance, instances that own no voxel) and random thresholds."""
    state = MapState(voxel_size=VOXEL)
    state.register_category("chair")
    ids = [state.new_instance() for _ in range(draw(st.integers(0, 12)))]
    for instance_id in ids:
        record = state.instances[instance_id]
        record.category_evidence = {"chair": draw(st.floats(0.1, 2.0))}
        record.observations.append(
            Observation(frame_id=instance_id, category="chair", confidence=0.9, pixel_bbox=None)
        )
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
            unique=True,
            min_size=4,
            max_size=18,
        )
    )
    for key in keys:
        owners = draw(
            st.lists(
                st.sampled_from([UNKNOWN_INSTANCE_ID, *ids]), min_size=1, max_size=4, unique=True
            )
        )
        for owner in owners:
            add_evidence(state, key, owner, draw(st.integers(1, 5)))
    threshold = st.floats(0.0, 1.0, exclude_min=True)
    config = AssociationConfig(tau_iou=draw(threshold), tau_ios=draw(threshold))
    return state, config


def footprint_map(footprints):
    """A map of instances 1, 2, ... with the given footprints, one point per voxel."""
    state = MapState(voxel_size=VOXEL)
    state.register_category("chair")
    for keys in footprints:
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"chair": 1.0}
        for key in keys:
            add_evidence(state, key, instance_id, 1)
    return state


def clutter_map_without_refinement(tmp_path):
    """Nine nearby boxes seen through dilated masks and noisy depth, mapped
    with refinement off, so over-segmented instances are left to merge."""
    rng = np.random.default_rng(7)
    objects = []
    for i in range(3):
        for j in range(3):
            low = np.array([-0.55 + 0.4 * i, -0.55 + 0.4 * j, 0.0])
            size = np.array([*rng.uniform(0.14, 0.3, size=2), rng.uniform(0.12, 0.6)])
            category = ("crate", "barrel", "chair")[(i + j) % 3]
            objects.append(SceneObject(f"b{i}{j}", category, low, low + size))
    scene = SyntheticScene(
        room_min=np.array([-3.0, -3.0, 0.0]),
        room_max=np.array([3.0, 3.0, 2.4]),
        objects=objects,
        trajectory=orbit_trajectory(np.zeros(3), 2.5, 1.5, 6, target=np.array([0.0, 0.0, 0.2])),
        intrinsics=CameraIntrinsics(
            fx=128.0, fy=128.0, cx=80.0, cy=60.0, width=160, height=120, depth_scale=0.001
        ),
        noise=NoiseSpec(
            mask_dilation_px=2, depth_sigma=0.004, misclassification_rate=0.15, mislabel_confidence=0.7
        ),
    )
    generate_synthetic(scene, seed=0, out_dir=tmp_path)
    pipeline = Pipeline(
        MapState(voxel_size=0.02),
        clustering=PipelineConfig().clustering_params(),
        association=AssociationConfig(refine_every=10**6),
        max_range=3.0,
    )
    for record in load_manifest(tmp_path / "manifest.jsonl"):
        pipeline.process_frame(load_frame(record))
    return pipeline.state


class TestRefineMatchesOracle:
    """refine against the reference that rescans the map and scores every
    pair after each merge: same events in the same order, same final map."""

    @staticmethod
    def check(state, config):
        """refine against the oracle; returns the (kept, retired) pairs."""
        reference = OracleMap.from_state(state)
        events = refine(state, config)
        expected = oracle_refine(reference, config)
        assert [(e.kept_id, e.retired_id, e.iou, e.ios) for e in events] == [
            (e.kept_id, e.retired_id, e.iou, e.ios) for e in expected
        ]
        assert oracle_snapshot_dict(state) == reference.to_dict()
        check_storage(state)
        return [(e.kept_id, e.retired_id) for e in events]

    @settings(max_examples=300, deadline=None)
    @given(refine_cases())
    def test_random_maps(self, case):
        self.check(*case)

    def test_chained_merge_rescored_through_the_retired_neighbours(self):
        # 1 and 2 merge first; 3 overlaps only 2, so the merged 1 must be
        # rescored against 3 through 2's neighbours
        footprints = (
            [(i, 0, 0) for i in range(10)],
            [(i, 0, 0) for i in range(5, 15)],
            [(i, 0, 0) for i in range(12, 16)],
        )
        config = AssociationConfig(tau_iou=0.3, tau_ios=0.7)
        assert self.check(footprint_map(footprints), config) == [(1, 2), (1, 3)]

    def test_neighbours_of_the_retired_point_at_the_kept(self):
        # 1 absorbs 2; 3 and 4 each overlap only 2, too little to pass with
        # the merged 1, but once 3 absorbs 4 their union passes with 1, which
        # 3 and 4 know only through 2
        shared = [(i, 1, 0) for i in range(8)]
        footprints = (
            [(8, 0, 0), (9, 0, 0)],
            [(i, 0, 0) for i in range(10)],
            [(i, 0, 0) for i in range(4)] + shared,
            [(i, 0, 0) for i in range(4, 8)] + shared,
        )
        config = AssociationConfig(tau_iou=0.4, tau_ios=0.9)
        assert self.check(footprint_map(footprints), config) == [(1, 2), (3, 4), (1, 3)]

    def test_noisy_scene(self, tmp_path):
        state = clutter_map_without_refinement(tmp_path)
        reference = OracleMap.from_state(state)
        events = refine(state, CFG)
        assert events == oracle_refine(reference, CFG)
        assert len(events) >= 3
        assert oracle_snapshot_dict(state) == reference.to_dict()


class TestOpinionKeys:
    @pytest.mark.parametrize("voxel_size", [VOXEL, 2 * VOXEL, 0.02])
    def test_keys_and_counts_match_oracle(self, voxel_size):
        rng = np.random.default_rng(4)
        op = opinion(rng.uniform(-1, 1, (500, 3)), voxel_size=voxel_size)
        assert np.all(op.keys[1:] > op.keys[:-1])
        assert op.counts.sum() == 500
        voxels = list(zip(unpack_keys(op.keys), op.counts.tolist()))
        assert voxels == list(oracle_voxel_counts(op, voxel_size).items())

    def test_map_of_another_voxel_size_is_refused(self):
        state, instance_id = state_with_instance(3)
        op = opinion([center(0), center(1)], voxel_size=2 * VOXEL)
        before = oracle_snapshot_dict(state)
        for call in (
            lambda: associate([op], state, CFG),
            lambda: integrate_geometric(op, instance_id, state),
            lambda: carve_free_space(op, state, np.zeros(3)),
        ):
            with pytest.raises(ValueError, match=f"{2 * VOXEL}.*{VOXEL}"):
                call()
        assert oracle_snapshot_dict(state) == before


def synthetic_frame(frame_id, predictions, depth_value=1500, shape=(40, 40), translation=(0, 0, 0)):
    """A frame of the given predictions over ``depth_value`` (a scalar or an
    array of the frame's shape), seen by a camera at ``translation``."""
    height, width = shape
    depth = np.full(shape, depth_value, dtype=np.uint16)
    intr = CameraIntrinsics(
        fx=100.0, fy=100.0, cx=width / 2, cy=height / 2, width=width, height=height, depth_scale=0.001
    )
    record = FrameRecord(
        frame_id=frame_id,
        depth_path=None,
        predictions_path=None,
        pose=Pose(rotation=np.eye(3), translation=np.array(translation, dtype=float)),
        intrinsics=intr,
    )
    return Frame(
        record=record,
        depth=depth,
        predictions=predictions,
    )


def block_mask(shape, rows, cols):
    mask = np.zeros(shape, dtype=bool)
    mask[rows[0] : rows[1], cols[0] : cols[1]] = True
    return mask


def make_pipeline(refine_every=30):
    state = MapState(voxel_size=0.02)
    clustering = ClusteringParams(coarse_voxel=0.08, eps=0.08 * 1.8, min_pts=4)
    return Pipeline(
        state,
        clustering=clustering,
        association=AssociationConfig(refine_every=refine_every),
    )


class TestProcessFrame:
    def test_empty_frame_only_increments_counter(self):
        pipeline = make_pipeline()
        empty = synthetic_frame(0, [], depth_value=0)
        pipeline.process_frame(empty)
        assert pipeline.state.frames_integrated == 1
        assert len(pipeline.state.cells) == 0
        assert set(pipeline.state.instances) == {UNKNOWN_INSTANCE_ID}

    def test_cold_start_spawns_and_feeds_unknown(self):
        shape = (40, 40)
        predictions = [
            PredictionInstance("chair", 0.9, encode_rle_mask(block_mask(shape, (2, 14), (2, 14)))),
            PredictionInstance("table", 0.8, encode_rle_mask(block_mask(shape, (24, 36), (24, 36)))),
        ]
        pipeline = make_pipeline()
        report = pipeline.process_frame(synthetic_frame(0, predictions, shape=shape))
        assert pipeline.timer == [report] and pipeline.timer[0] is report
        assert len(report.association.spawned) == 2
        state = pipeline.state
        assert len(state.instances) == 3  # unknown + 2 spawned
        unknown_mass = sum(
            cell.instance_counts.get(UNKNOWN_INSTANCE_ID, 0) for cell in cells_of(state).values()
        )
        assert unknown_mass > 0
        categories = {
            label
            for record in state.instances.values()
            for label in record.category_evidence
        }
        assert {"chair", "table"} <= categories
        check_storage(state)

    def test_replay_doubles_alpha_and_reassociates(self):
        shape = (40, 40)
        predictions = [
            PredictionInstance("chair", 0.9, encode_rle_mask(block_mask(shape, (2, 14), (2, 14)))),
        ]
        pipeline = make_pipeline()
        frame = synthetic_frame(0, predictions, shape=shape)
        first = pipeline.process_frame(frame).association
        counts_after_first = {
            key: dict(cell.instance_counts) for key, cell in cells_of(pipeline.state).items()
        }
        second = pipeline.process_frame(copy.deepcopy(frame)).association
        assert len(first.spawned) == 1
        spawned_id = first.spawned[0][1]
        assert second.spawned == []
        matched = {instance_id for _, instance_id, _, _ in second.matches}
        assert matched == {spawned_id, UNKNOWN_INSTANCE_ID}
        cells_after_second = cells_of(pipeline.state)
        for key, counts in counts_after_first.items():
            for instance_id, count in counts.items():
                assert cells_after_second[key].instance_counts[instance_id] == 2 * count

    def test_refine_runs_on_schedule(self, monkeypatch):
        returned = []

        def recording_refine(state, config):
            events = refine(state, config)
            returned.extend(events)
            return events

        monkeypatch.setattr(fusion, "refine", recording_refine)
        pipeline = make_pipeline(refine_every=2)
        shape = (40, 40)
        # two labels on one mask spawn two instances with the same footprint
        mask = encode_rle_mask(block_mask(shape, (2, 14), (2, 14)))
        predictions = [PredictionInstance("chair", 0.9, mask), PredictionInstance("table", 0.6, mask)]
        pipeline.process_frame(synthetic_frame(0, predictions, shape=shape))
        assert sum(STAGE_REFINEMENT in report.stage_seconds for report in pipeline.timer) == 0
        assert [event for report in pipeline.timer for event in report.merges] == []
        pipeline.process_frame(synthetic_frame(1, predictions, shape=shape))
        assert sum(STAGE_REFINEMENT in report.stage_seconds for report in pipeline.timer) == 1
        assert len(returned) == 1
        merges = [(report.frame_id, event) for report in pipeline.timer for event in report.merges]
        assert merges == [(1, event) for event in returned]

    def test_timer_reports_all_stages(self):
        pipeline = make_pipeline(refine_every=1)
        pipeline.process_frame(synthetic_frame(0, [], depth_value=1000))
        report = pipeline.timer.report()
        for stage in (STAGE_OPINIONS, STAGE_ASSOCIATION, STAGE_INTEGRATION, STAGE_REFINEMENT):
            assert stage in report["stages"]
        assert report["frames"] == 1
        assert report["frame_rate_hz"] > 0

    def test_report_summarizes_known_seconds(self):
        """Each stage is summarized over the frames it ran in, with numpy's
        linear percentiles; a refinement that never ran has runs 0 and zeros."""
        event = MergeEvent(kept_id=1, retired_id=5, iou=0.25, ios=0.8)
        reports = FrameReports(
            FrameReport(
                frame_id,
                {STAGE_OPINIONS: opinions_ms / 1000, STAGE_ASSOCIATION: 0.002, STAGE_INTEGRATION: 0.004}
                | ({STAGE_REFINEMENT: 0.02} if frame_id == 4 else {}),
                0.1,
                AssociationOutcome(),
                [event] if frame_id == 4 else [],
            )
            for frame_id, opinions_ms in enumerate([5.0, 1.0, 4.0, 2.0, 3.0])
        )
        report = reports.report()
        assert report["frames"] == 5 and report["frame_rate_hz"] == pytest.approx(10.0)
        assert report["stages"][STAGE_OPINIONS] == pytest.approx(
            {"mean_ms": 3.0, "p50_ms": 3.0, "p95_ms": 4.8, "max_ms": 5.0, "runs": 5}
        )
        assert report["stages"][STAGE_INTEGRATION] == pytest.approx(
            {"mean_ms": 4.0, "p50_ms": 4.0, "p95_ms": 4.0, "max_ms": 4.0, "runs": 5}
        )
        assert report["stages"][STAGE_REFINEMENT] == pytest.approx(
            {"mean_ms": 20.0, "p50_ms": 20.0, "p95_ms": 20.0, "max_ms": 20.0, "runs": 1}
        )
        assert report["merges"] == [{"frame_id": 4, "kept_id": 1, "retired_id": 5, "iou": 0.25, "ios": 0.8}]

        early = FrameReports(reports[:4]).report()
        zeros = {"mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0, "runs": 0}
        assert early["stages"][STAGE_REFINEMENT] == zeros and early["merges"] == []
        assert list(early["stages"]) == [STAGE_OPINIONS, STAGE_ASSOCIATION, STAGE_INTEGRATION, STAGE_REFINEMENT]
        assert FrameReports().report() == {
            "stages": {stage: zeros for stage in early["stages"]}, "frames": 0, "frame_rate_hz": 0.0, "merges": []
        }

    def test_archived_views_read_the_image_once_per_frame(self, tmp_path, monkeypatch):
        shape = (40, 40)
        image = np.random.default_rng(8).integers(0, 256, size=(*shape, 3), dtype=np.uint8)
        write_ppm(tmp_path / "rgb.ppm", image)
        reads = []

        def counting_read_ppm(path):
            reads.append(path)
            return read_ppm(path)

        monkeypatch.setattr(fusion, "read_ppm", counting_read_ppm)
        predictions = [
            PredictionInstance("chair", 0.9, encode_rle_mask(block_mask(shape, (2, 14), (2, 14)))),
            PredictionInstance("table", 0.8, encode_rle_mask(block_mask(shape, (24, 36), (20, 33)))),
        ]
        pipeline = Pipeline(
            MapState(voxel_size=0.02), clustering=ClusteringParams(0.08, 0.144, 4), view_store=tmp_path / "views"
        )
        frame = synthetic_frame(3, predictions, shape=shape)
        frame.record.rgb_path = tmp_path / "rgb.ppm"
        pipeline.process_frame(frame)
        assert reads == [tmp_path / "rgb.ppm"]
        observations = [
            observation for record in pipeline.state.instances.values() for observation in record.observations
        ]
        assert [o.pixel_bbox for o in observations] == [(2, 2, 13, 13), (20, 24, 32, 35)]
        for observation in observations:
            assert np.array_equal(read_ppm(observation.view_path), crop_bbox(image, observation.pixel_bbox))

        # a frame whose opinions are all unknown archives nothing and reads nothing
        frame = synthetic_frame(4, [], shape=shape)
        frame.record.rgb_path = tmp_path / "rgb.ppm"
        pipeline.process_frame(frame)
        assert len(reads) == 1

    def test_determinism_byte_identical_snapshots(self, tmp_path):
        shape = (40, 40)

        def run(path):
            pipeline = make_pipeline(refine_every=2)
            for frame_id in range(4):
                predictions = [
                    PredictionInstance(
                        "chair", 0.9, encode_rle_mask(block_mask(shape, (2, 14), (2, 14)))
                    ),
                    PredictionInstance(
                        "table", 0.8, encode_rle_mask(block_mask(shape, (24, 36), (24, 36)))
                    ),
                ]
                pipeline.process_frame(synthetic_frame(frame_id, predictions, shape=shape))
            pipeline.state.save_snapshot(path)

        run(tmp_path / "a.vxl")
        run(tmp_path / "b.vxl")
        assert (tmp_path / "a.vxl").read_bytes() == (tmp_path / "b.vxl").read_bytes()


FRAME_SHAPE = (24, 24)
BOX = st.tuples(st.integers(0, 16), st.integers(0, 16), st.integers(4, 10), st.integers(4, 10))


def stepped_depth(box, near):
    """Depth 1 m with a nearer box, so that rays to far voxels pass through near ones."""
    row, col, rows, cols = box
    depth = np.full(FRAME_SHAPE, 1000, dtype=np.uint16)
    depth[row : row + rows, col : col + cols] = near
    return depth


@st.composite
def overlapping_frames(draw):
    """1-3 frames of 1-4 box masks that may overlap or repeat, so that
    several opinions of one frame hit the same voxels, over a depth step
    whose near box some masks cover; camera shifts between frames; a log-odds band that k hits may cross at
    either end (p_hit below 0.5 lowers the log-odds); carving on or off."""
    frames = []
    for frame_id in range(draw(st.integers(1, 3))):
        near_box = draw(BOX)
        predictions = []
        # masks of the near box may repeat under other labels
        for row, col, rows, cols in draw(st.lists(st.one_of(st.just(near_box), BOX), min_size=1, max_size=4)):
            mask = block_mask(FRAME_SHAPE, (row, row + rows), (col, col + cols))
            label = draw(st.sampled_from(["chair", "table", "lamp"]))
            predictions.append(PredictionInstance(label, draw(st.floats(0.1, 1.0)), encode_rle_mask(mask)))
        depth = stepped_depth(near_box, draw(st.integers(500, 900)))
        shift = (draw(st.integers(-2, 2)) * 0.005, draw(st.integers(-2, 2)) * 0.005, 0.0)
        frames.append(synthetic_frame(frame_id, predictions, depth, FRAME_SHAPE, shift))
    occupancy = OccupancyParams(
        p_hit=draw(st.sampled_from([0.3, 0.7, 0.9])),
        log_odds_min=draw(st.floats(-2.5, -0.5)),
        log_odds_max=draw(st.floats(0.5, 2.5)),
    )
    carve = draw(st.booleans())
    return frames, occupancy, carve, draw(st.integers(1, 4))


def reference_pipeline_map(pipeline, frames, outcomes):
    """The map the pipeline's frames and association outcomes give when every
    opinion is integrated on its own, voxel by voxel, into an OracleMap."""
    state = pipeline.state
    model = OracleMap(voxel_size=state.voxel_size, occupancy=state.occupancy)
    for frame, outcome in zip(frames, outcomes):
        opinions = build_opinions(frame, pipeline.clustering, pipeline.max_range, voxel_size=state.voxel_size)
        for _, instance_id in outcome.spawned:
            assert model.new_instance() == instance_id
        spawned = [(index, instance_id, 0.0, 0.0) for index, instance_id in outcome.spawned]
        for index, instance_id, _, _ in sorted(outcome.matches + spawned):
            opinion = opinions[index]
            oracle_integrate(opinion, instance_id, model)
            if not opinion.is_unknown:
                oracle_integrate_semantic(opinion, instance_id, model)
            if pipeline.carve:
                origin = frame.record.pose.translation
                oracle_carve_free_space(opinion, model, origin, pipeline.carve_stride)
        model.frames_integrated += 1
    return model


class TestPerFrameInsertion:
    """A frame's voxels become cells in one insertion before its opinions are
    integrated; the map must equal the one built opinion by opinion."""

    def check(self, frames, occupancy, carve=False, stride=4):
        pipeline = Pipeline(
            MapState(voxel_size=0.02, occupancy=occupancy),
            # coarse cells small enough that boxes of 4 pixels survive the filter
            clustering=ClusteringParams(coarse_voxel=0.04, eps=0.04 * 1.8, min_pts=4),
            carve=carve,
            carve_stride=stride,
        )
        outcomes = [pipeline.process_frame(frame).association for frame in frames]
        reference = reference_pipeline_map(pipeline, frames, outcomes)
        assert oracle_snapshot_dict(pipeline.state) == reference.to_dict()
        check_storage(pipeline.state)
        return pipeline.state

    @given(overlapping_frames())
    @settings(max_examples=60, deadline=None)
    def test_random_frames(self, case):
        frames, occupancy, carve, stride = case
        self.check(frames, occupancy, carve, stride)

    def test_k_hits_cross_the_upper_bound(self):
        mask = encode_rle_mask(block_mask(FRAME_SHAPE, (4, 14), (4, 14)))
        predictions = [PredictionInstance(label, 0.9, mask) for label in ("chair", "table", "lamp")]
        frames = [synthetic_frame(0, predictions, depth_value=1000, shape=FRAME_SHAPE)]
        occupancy = OccupancyParams(log_odds_max=2.0)
        state = self.check(frames, occupancy)
        # three opinions on one mask: three hits of l_hit = 0.847, the third clipped at 2.0
        assert state.cells.log_odds.max() == 2.0

    def test_carving_interleaves_misses_with_hits(self):
        # near, far, near again: rays to far voxels pass through near ones,
        # so in this frame 5 voxels get a miss before their first hit and 14
        # a miss after one
        near = block_mask(FRAME_SHAPE, (2, 12), (2, 12))
        predictions = [
            PredictionInstance("chair", 0.9, encode_rle_mask(near)),
            PredictionInstance("table", 0.8, encode_rle_mask(block_mask(FRAME_SHAPE, (6, 22), (6, 22)))),
            PredictionInstance("lamp", 0.7, encode_rle_mask(near)),
        ]
        depth = stepped_depth((2, 2, 10, 10), 600)
        frames = [synthetic_frame(0, predictions, depth, FRAME_SHAPE, (0.01, 0.01, 0.0))]
        state = self.check(frames, OccupancyParams(), carve=True, stride=1)
        assert state.cells.log_odds.min() < 0.0
