import gc
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland import atomic, voxelmap
from voxeland.atomic import atomic_write
from voxeland.evidence import NoEvidenceError, probabilities
from voxeland.uncertainty import voxel_category_distribution
from voxeland.voxelmap import (
    SNAPSHOT_SCHEMA_VERSION,
    UNKNOWN_INSTANCE_ID,
    MapState,
    Observation,
    OccupancyParams,
    SnapshotError,
    pack_keys,
    points_to_keys,
    unpack_keys,
)

from oracles import (
    OracleMap,
    cells_of,
    check_storage,
    oracle_snapshot_cells,
    oracle_snapshot_dict,
    world_to_key,
)
from test_fusion import clutter_map_without_refinement


class TestWorldToKey:
    def test_floor_semantics(self):
        assert world_to_key(np.array([0.03, -0.01, 0.0]), 0.02) == (1, -1, 0)

    def test_origin(self):
        assert world_to_key(np.zeros(3), 0.02) == (0, 0, 0)

    def test_boundary_belongs_to_upper_cell(self):
        assert world_to_key(np.array([0.02, 0.02, 0.02]), 0.02) == (1, 1, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            world_to_key(np.array([np.nan, 0, 0]), 0.02)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(-5, 5, (200, 3))
        keys = points_to_keys(points, 0.02)
        for point, key in zip(points, keys):
            assert world_to_key(point, 0.02) == tuple(key)

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-1000, 1000, (500, 3)).astype(np.int64)
        packed = pack_keys(keys)
        unpacked = unpack_keys(packed)
        assert len(unpacked) == len(keys)
        for row, key in zip(keys, unpacked):
            assert key == tuple(row)

    def test_packed_order_is_key_order(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(-(1 << 20), 1 << 20, (500, 3)).astype(np.int64)
        keys[:4] = [[-(1 << 20)] * 3, [(1 << 20) - 1] * 3, [-1, 0, 0], [0, -1, (1 << 20) - 1]]
        packed = pack_keys(keys)
        assert unpack_keys(np.sort(packed)) == sorted(map(tuple, keys.tolist()))
        with pytest.raises(ValueError, match="packable"):
            pack_keys(np.array([[0, 0, 1 << 20]]))


def log_odds_after(hits, params: OccupancyParams) -> float:
    """Log-odds of one voxel after a hit or a miss for each entry of ``hits``."""
    state = MapState(voxel_size=0.1, occupancy=params)
    key = pack_keys(np.array([[0, -1, 2]]))
    for hit in hits:
        state.integrate_occupancy(key, hit=bool(hit))
    assert len(state.cells) == 1
    return float(state.cells.log_odds[0])


class TestOccupancy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_hit": 1.0},
            {"p_hit": 0.0},
            {"p_hit": 1.5},
            {"p_hit": float("nan")},
            {"p_miss": 0.0},
            {"p_miss": 1.0},
            {"p_miss": -0.2},
            {"log_odds_min": 1.0, "log_odds_max": 0.5},
            {"log_odds_min": float("nan")},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OccupancyParams(**kwargs)
        snapshot = oracle_snapshot_dict(MapState(voxel_size=0.05))
        snapshot["occupancy"].update(kwargs)
        with pytest.raises(ValueError):
            MapState.from_dict(snapshot)

    def test_equal_clamp_bounds_accepted(self):
        params = OccupancyParams(log_odds_min=0.5, log_odds_max=0.5)
        assert log_odds_after([True], params) == 0.5

    def test_single_hit(self):
        log_odds = log_odds_after([True], OccupancyParams())
        assert log_odds == pytest.approx(math.log(0.7 / 0.3), abs=1e-12)
        assert 1.0 / (1.0 + math.exp(-log_odds)) == pytest.approx(0.7, abs=1e-12)

    def test_single_miss(self):
        log_odds = log_odds_after([False], OccupancyParams())
        assert log_odds == pytest.approx(math.log(0.4 / 0.6), abs=1e-12)
        assert 1.0 / (1.0 + math.exp(-log_odds)) == pytest.approx(0.4, abs=1e-12)

    def test_clamped_at_max(self):
        assert log_odds_after([True] * 5, OccupancyParams()) == 3.5

    def test_order_independent_without_saturation(self):
        # narrow band disabled: use wide clamps so no update saturates
        params = OccupancyParams(log_odds_min=-1e9, log_odds_max=1e9)
        rng = np.random.default_rng(2)
        observations = rng.random(40) < 0.5
        final = [log_odds_after(rng.permutation(observations), params) for _ in range(5)]
        # addition commutes up to rounding; require exact equality of the sum
        expected = math.fsum(
            params.l_hit if hit else params.l_miss for hit in observations
        )
        for value in final:
            assert value == pytest.approx(expected, abs=1e-12)


class TestInstanceEvidence:
    def test_first_evidence(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        state.add_instance_evidence((0, 0, 0), k2, 5)
        assert cells_of(state)[(0, 0, 0)].instance_counts == {k2: 5}
        assert cells_of(state)[(0, 0, 0)].log_odds == 0.0
        assert state.instances[k2].voxel_count == 1

    def test_accumulation(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        state.add_instance_evidence((0, 0, 0), k2, 5)
        state.add_instance_evidence((0, 0, 0), k2, 3)
        assert cells_of(state)[(0, 0, 0)].instance_counts == {k2: 8}
        assert state.instances[k2].voxel_count == 1

    def test_batch_adds_repeated_keys_and_broadcasts_one_count(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        state.add_instance_evidence([(1, 0, 0), (0, 0, 0), (1, 0, 0)], k2, [2, 5, 3])
        state.add_instance_evidence([(0, 0, 0), (-4, 0, 0)], k2, 1)
        assert {key: cell.instance_counts for key, cell in cells_of(state).items()} == {
            (-4, 0, 0): {k2: 1},
            (0, 0, 0): {k2: 6},
            (1, 0, 0): {k2: 5},
        }
        assert state.instances[k2].voxel_count == 3
        check_storage(state)

    def test_support_expansion(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        k7 = state.new_instance()
        state.add_instance_evidence((0, 0, 0), k2, 5)
        state.add_instance_evidence((0, 0, 0), k7, 1)
        cell = cells_of(state)[(0, 0, 0)]
        assert cell.instance_counts == {k2: 5, k7: 1}
        dist = probabilities(cell.instance_counts)
        assert dist[k7] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_unregistered_instance_rejected(self):
        state = MapState(voxel_size=0.02)
        with pytest.raises(KeyError):
            state.add_instance_evidence((0, 0, 0), 99, 1)

    def test_non_positive_count_rejected(self):
        state = MapState(voxel_size=0.02)
        k = state.new_instance()
        with pytest.raises(ValueError):
            state.add_instance_evidence((0, 0, 0), k, 0)
        with pytest.raises(ValueError):
            state.add_instance_evidence([(1, 0, 0), (2, 0, 0)], k, [3, -1])
        assert len(state.cells) == 0


def weights_of(instance_counts: dict[int, int]) -> dict[str, float]:
    """A voxel's instance weights, read from the category mixture of a map in
    which instance i holds only category "c<i>" and the unknown instance none."""
    state = MapState(voxel_size=0.02)
    while state._next_instance_id <= max(instance_counts):
        state.new_instance()
    for instance_id in instance_counts:
        if instance_id != UNKNOWN_INSTANCE_ID:
            state.instances[instance_id].category_evidence = {f"c{instance_id}": 1.0}
    for instance_id, count in instance_counts.items():
        state.add_instance_evidence((0, 0, 0), instance_id, count)
    (cell,) = cells_of(state).values()
    return voxel_category_distribution(cell.instance_counts, state).probs


class TestVoxelInstanceDistribution:
    def test_mixed_cell(self):
        assert weights_of({2: 3, 0: 1}) == {"c2": 0.75, "unknown": 0.25}

    def test_unknown_only(self):
        assert weights_of({0: 4}) == {"unknown": 1.0}

    def test_three_way(self):
        assert weights_of({1: 1, 2: 1, 3: 2}) == {"c1": 0.25, "c2": 0.25, "c3": 0.5}

    def test_empty_cell_is_error(self):
        with pytest.raises(NoEvidenceError, match="no evidence"):
            voxel_category_distribution({}, MapState(voxel_size=0.02))


@st.composite
def evidence_ops(draw):
    n_instances = draw(st.integers(min_value=1, max_value=4))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_instances - 1),
                st.integers(min_value=-2, max_value=2),
                st.integers(min_value=-2, max_value=2),
                st.integers(min_value=-2, max_value=2),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=60,
        )
    )
    return n_instances, ops


class TestRegistryAudit:
    @given(evidence_ops())
    @settings(max_examples=100)
    def test_voxel_counts_match_recomputation(self, case):
        n_instances, ops = case
        state = MapState(voxel_size=0.05)
        batched = MapState(voxel_size=0.05)
        model = OracleMap(voxel_size=0.05)
        ids = [state.new_instance() for _ in range(n_instances)]
        for _ in ids:
            batched.new_instance()
            model.new_instance()
        for which, i, j, k, count in ops:
            state.add_instance_evidence((i, j, k), ids[which], count)
            model.add_instance_evidence((i, j, k), ids[which], count)
        for which, instance_id in enumerate(ids):
            mine = [(op[1:4], op[4]) for op in ops if op[0] == which]
            if mine:
                batched.add_instance_evidence([key for key, _ in mine], instance_id, [c for _, c in mine])
        check_storage(state)
        assert oracle_snapshot_dict(state) == model.to_dict()
        assert oracle_snapshot_dict(batched)["cells"] == model.to_dict()["cells"]
        for instance_id in ids:
            assert set(unpack_keys(state.instances[instance_id].keys)) == {
                key
                for key, cell in model.cells.items()
                if cell.instance_counts.get(instance_id, 0) > 0
            }
            assert state.instances[instance_id].voxel_count == model.instances[instance_id].voxel_count

    def test_audit_detects_corruption(self):
        state = MapState(voxel_size=0.05)
        k = state.new_instance()
        state.add_instance_evidence((0, 0, 0), k, 1)
        snapshot = oracle_snapshot_dict(state)
        snapshot["instances"][1]["voxel_count"] = 7
        with pytest.raises(SnapshotError, match="voxel_count 7"):
            MapState.from_dict(snapshot)


class TestSparseExpansionAgainstDenseReference:
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=100)
    def test_new_instance_expansion_matches_dense_vector(self, dense_counts, new_count):
        # dense vector semantics: zeros allowed, distribution over nonzero support
        state = MapState(voxel_size=0.05)
        ids = [state.new_instance() for _ in dense_counts]
        for instance_id, count in zip(ids, dense_counts):
            if count > 0:
                state.add_instance_evidence((0, 0, 0), instance_id, count)
        if not any(dense_counts):
            return
        fresh = state.new_instance()
        state.add_instance_evidence((0, 0, 0), fresh, new_count)
        sparse_dist = probabilities(cells_of(state)[(0, 0, 0)].instance_counts)
        dense = dense_counts + [new_count]
        total = sum(dense)
        for instance_id, count in zip(ids + [fresh], dense):
            if count > 0:
                assert sparse_dist[instance_id] == pytest.approx(count / total, abs=1e-12)
            else:
                assert sparse_dist[instance_id] == 0.0


def small_snapshot() -> dict:
    """A valid snapshot with one of each kind of entry."""
    state = MapState(voxel_size=0.05)
    a = state.new_instance()
    state.instances[a].category_evidence = {"chair": 1.5}
    state.register_category("chair")
    state.add_instance_evidence((0, -1, 2), a, 3)
    state.add_instance_evidence((0, -1, 2), UNKNOWN_INSTANCE_ID, 1)
    state.integrate_occupancy(pack_keys(np.array([[0, -1, 2]])), hit=True)
    state.instances[a].observations.append(
        Observation(frame_id=0, category="chair", confidence=0.9, pixel_bbox=(1, 2, 3, 4))
    )
    return oracle_snapshot_dict(state)



class TestSnapshot:
    def build_state(self, insertion_order):
        state = MapState(voxel_size=0.02)
        a = state.new_instance()
        b = state.new_instance()
        state.instances[a].category_evidence = {"chair": 1.5}
        state.instances[b].category_evidence = {"table": 0.4, "chair": 0.2}
        state.register_category("chair")
        state.register_category("table")
        cells = [((0, 0, 0), a, 3), ((1, 0, 0), b, 2), ((0, 1, 0), a, 1), ((0, 0, 1), b, 5)]
        for key, instance_id, count in (
            cells if insertion_order == "forward" else list(reversed(cells))
        ):
            state.add_instance_evidence(key, instance_id, count)
            state.integrate_occupancy(pack_keys(np.array([key])), hit=True)
        state.frames_integrated = 4
        return state

    def test_save_load_identity(self, tmp_path):
        state = self.build_state("forward")
        path = tmp_path / "map.json"
        state.save_snapshot(path)
        loaded = MapState.load_snapshot(path)
        assert oracle_snapshot_dict(loaded) == oracle_snapshot_dict(state)
        loaded.save_snapshot(tmp_path / "map2.json")
        assert (tmp_path / "map.json").read_bytes() == (tmp_path / "map2.json").read_bytes()

    def test_snapshot_independent_of_insertion_order(self, tmp_path):
        self.build_state("forward").save_snapshot(tmp_path / "a.json")
        self.build_state("reverse").save_snapshot(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wrong_schema_version_rejected(self, tmp_path):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        for version in (SNAPSHOT_SCHEMA_VERSION + 98, 0, None, "1", True, 1.0):
            snapshot["schema_version"] = version
            with pytest.raises(SnapshotError, match="schema_version"):
                MapState.from_dict(snapshot)
        del snapshot["schema_version"]
        with pytest.raises(SnapshotError, match="schema_version"):
            MapState.from_dict(snapshot)

    @pytest.mark.parametrize("path", [("cells",), ("occupancy", "p_hit"), ("instances", 0, "voxel_count")])
    def test_missing_key_rejected(self, path):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        parent = snapshot
        for step in path[:-1]:
            parent = parent[step]
        del parent[path[-1]]
        with pytest.raises(SnapshotError, match=repr(path[-1])):
            MapState.from_dict(snapshot)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s["cells"].append({**s["cells"][2], "instance_counts": {}}), "cell key is listed twice"),
            (lambda s: s["cells"][0]["instance_counts"].update({"1": 0}), "below 1"),
            (lambda s: s["cells"][0]["instance_counts"].update({"9": 1}), "unlisted instances"),
            (lambda s: s["cells"][1].update(key=[0, 1 << 20, 0]), "packable"),
            (lambda s: s["instances"][2].update(voxel_count=3), "voxel_count"),
            (lambda s: s["cells"][0]["instance_counts"].update({"01": 1}), "instance is listed twice"),
            (lambda s: s["cells"][0].update(key=[[0, 0, 0]]), "malformed"),
            (lambda s: [cell.update(key=[cell["key"]]) for cell in s["cells"]], "three integers"),
        ],
    )
    def test_inconsistent_cells_rejected(self, corrupt, message):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        assert oracle_snapshot_dict(MapState.from_dict(snapshot)) == snapshot
        corrupt(snapshot)
        with pytest.raises(SnapshotError, match=message):
            MapState.from_dict(snapshot)

    def test_unreadable_snapshot_file_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"schema_version": 1, "cells": [')
        with pytest.raises(SnapshotError, match="not a JSON snapshot"):
            MapState.load_snapshot(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_snapshot_parses_or_raises_snapshot_error(self, data):
        """Replace or delete one value anywhere in a valid snapshot: loading
        either succeeds or raises SnapshotError, never another exception."""
        snapshot = small_snapshot()
        parent, step = None, None
        node = snapshot
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            parent = node
            step = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[step]
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=5,
        )
        if parent is None:
            snapshot = data.draw(json_values)
        elif isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[step]
        else:
            parent[step] = data.draw(json_values)
        try:
            MapState.from_dict(snapshot)
        except SnapshotError:
            pass

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s["cells"][0].update(key=[1.7, 2, 3]), "three integers"),
            (lambda s: s["cells"][0].update(key=[True, 0, 0]), "three integers"),
            (lambda s: s["cells"][0].update(key=["0", 0, 0]), "three integers"),
            (lambda s: s["cells"][0].update(key=[0, 0, 0, 0]), "three integers"),
            (lambda s: s["cells"][0].update(log_odds="0.5"), "not a number"),
            (lambda s: s["cells"][0].update(log_odds=None), "not a number"),
            (lambda s: s["cells"][0].update(log_odds=False), "not a number"),
            (lambda s: s["cells"][0].update(log_odds=math.nan), "not finite"),
            (lambda s: s["cells"][0].update(log_odds=-math.inf), "not finite"),
            (lambda s: s["cells"][0]["instance_counts"].update({"1": 2.0}), "not an integer"),
            (lambda s: s["cells"][0]["instance_counts"].update({"1": "2"}), "not an integer"),
            (lambda s: s["cells"][0]["instance_counts"].update({"1": True}), "not an integer"),
        ],
        ids=[
            "float-key", "bool-key", "string-key", "four-key", "string-log-odds", "null-log-odds",
            "bool-log-odds", "nan-log-odds", "inf-log-odds", "float-count", "string-count",
            "bool-count",
        ],
    )
    def test_bad_cell_values_rejected(self, corrupt, message):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        corrupt(snapshot)
        with pytest.raises(SnapshotError, match=message):
            MapState.from_dict(snapshot)

    def test_integral_log_odds_accepted(self):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        snapshot["cells"][0]["log_odds"] = 1
        assert MapState.from_dict(snapshot).cells.log_odds[0] == 1.0

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s.update(next_instance_id=2), "next_instance_id 2"),
            (lambda s: s.update(next_instance_id=0), "next_instance_id 0"),
            (lambda s: s["instances"].pop(0), "unknown instance"),
            (lambda s: s["instances"].append(s["instances"][1]), "instance is listed twice"),
        ],
        ids=["next-id-taken", "next-id-zero", "no-unknown-instance", "instance-twice"],
    )
    def test_bad_instance_registry_rejected(self, corrupt, message):
        snapshot = oracle_snapshot_dict(self.build_state("forward"))
        corrupt(snapshot)
        with pytest.raises(SnapshotError, match=message):
            MapState.from_dict(snapshot)

    def test_loaded_registry_hands_out_fresh_ids(self):
        state = MapState.from_dict(oracle_snapshot_dict(self.build_state("forward")))
        fresh = state.new_instance()
        assert fresh == 3 and len(state.instances) == 4

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("valid", [True, False])
    def test_load_restores_collector_state(self, tmp_path, enabled, valid):
        path = tmp_path / "map.json"
        if valid:
            self.build_state("forward").save_snapshot(path)
        else:
            path.write_text('{"schema_version": 1, "cells": []}')
        seen = []

        def from_dict(obj):
            seen.append(gc.isenabled())
            return original(obj)

        original = MapState.from_dict
        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with mock.patch.object(MapState, "from_dict", side_effect=from_dict):
                if valid:
                    MapState.load_snapshot(path)
                else:
                    with pytest.raises(SnapshotError):
                        MapState.load_snapshot(path)
            assert seen == [False]
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_unknown_instance_preexists(self):
        state = MapState(voxel_size=0.02)
        assert UNKNOWN_INSTANCE_ID in state.instances
        assert state.instances[UNKNOWN_INSTANCE_ID].category_evidence == {}
        assert "unknown" in state.categories


_SNAPSHOT_TEXT = st.text(
    st.sampled_from(["a", "z", '"', "\\", "/", "\n", "\u00e9", "\u2603", "\U0001f600", " "]), max_size=4
)
_SNAPSHOT_KEY = st.tuples(*[st.integers(-3, 1)] * 3)


@st.composite
def snapshot_maps(draw):
    """Maps whose snapshots hold every kind of row the writer formats: ids
    of 10 or more sharing cells with smaller ids, negative keys, cells
    without evidence, log-odds at both clamp bounds and at -0.0, and text
    with quotes, escapes and non-ASCII characters."""
    state = MapState(voxel_size=draw(st.sampled_from([0.05, 0.1, 1 / 3])))
    ids = [UNKNOWN_INSTANCE_ID] + [state.new_instance() for _ in range(draw(st.integers(0, 13)))]
    for instance_id in ids:
        for key, count in draw(st.lists(st.tuples(_SNAPSHOT_KEY, st.integers(1, 10**12)), max_size=6)):
            state.add_instance_evidence(key, instance_id, count)
    # five hits reach log_odds_max and five misses log_odds_min
    for key, hit, repeats in draw(
        st.lists(st.tuples(_SNAPSHOT_KEY, st.booleans(), st.integers(1, 6)), max_size=12)
    ):
        for _ in range(repeats):
            state.integrate_occupancy(pack_keys(np.array([key])), hit)
    if len(state.cells) and draw(st.booleans()):
        state.cells.log_odds[draw(st.integers(0, len(state.cells) - 1))] = -0.0
    for category in draw(st.lists(_SNAPSHOT_TEXT, max_size=3)):
        state.register_category(category)
    observations = st.builds(
        Observation,
        frame_id=st.integers(0, 99),
        category=_SNAPSHOT_TEXT,
        confidence=st.floats(0.0, 1.0),
        pixel_bbox=st.none() | st.tuples(*[st.integers(0, 640)] * 4),
        view_path=st.none() | _SNAPSHOT_TEXT,
    )
    for instance_id in ids[1:]:
        record = state.instances[instance_id]
        record.category_evidence = draw(st.dictionaries(_SNAPSHOT_TEXT, st.floats(0.0, 10.0), max_size=2))
        record.final_category = draw(st.none() | _SNAPSHOT_TEXT)
        record.flagged = draw(st.booleans())
        record.observations = draw(st.lists(observations, max_size=2))
    state.frames_integrated = draw(st.integers(0, 50))
    return state


def oracle_snapshot_text(state: MapState) -> bytes:
    return json.dumps(oracle_snapshot_dict(state), sort_keys=True, separators=(",", ":")).encode("utf-8")


def assert_snapshot_round_trip(state: MapState, directory) -> None:
    """The saved bytes equal the dumped oracle dict, loading gives the cells
    and footprints the per-entry conversion gives, and a save after the
    load writes the same bytes."""
    path = os.path.join(directory, "map.json")
    state.save_snapshot(path)
    with open(path, "rb") as handle:
        saved = handle.read()
    assert saved == oracle_snapshot_text(state)
    loaded = MapState.load_snapshot(path)
    check_storage(loaded)
    cell_keys, log_odds, footprints = oracle_snapshot_cells(json.loads(saved))
    np.testing.assert_array_equal(loaded.cells.keys, cell_keys)
    assert loaded.cells.log_odds.view(np.int64).tolist() == log_odds.view(np.int64).tolist()
    assert sorted(loaded.instances) == sorted(state.instances)
    for instance_id, record in loaded.instances.items():
        keys, counts = footprints.get(instance_id, (np.empty(0, np.int64),) * 2)
        np.testing.assert_array_equal(record.keys, keys)
        np.testing.assert_array_equal(record.counts, counts)
    loaded.save_snapshot(path)
    with open(path, "rb") as handle:
        assert handle.read() == saved


@pytest.fixture(scope="module")
def noisy_state(tmp_path_factory):
    return clutter_map_without_refinement(tmp_path_factory.mktemp("noisy"))


class TestSnapshotAgainstOracle:
    """The chunked snapshot writer and the column-wise loader against the
    dict-per-cell code they replace."""

    @settings(max_examples=100, deadline=None)
    @given(snapshot_maps(), st.sampled_from([1, 2, 5, voxelmap._CHUNK_ROWS]))
    def test_random_maps(self, state, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(voxelmap, "_CHUNK_ROWS", chunk_rows):
            assert_snapshot_round_trip(state, tmp)

    def test_empty_map(self, tmp_path):
        state = MapState(voxel_size=0.05)
        assert_snapshot_round_trip(state, tmp_path)
        assert b'"cells":[]' in (tmp_path / "map.json").read_bytes()

    def test_owners_in_string_order(self, tmp_path):
        state = MapState(voxel_size=0.05)
        ids = [state.new_instance() for _ in range(10)]
        state.add_instance_evidence((0, 0, 0), ids[1], 4)
        state.add_instance_evidence((0, 0, 0), ids[-1], 7)
        state.add_instance_evidence((0, 0, 0), UNKNOWN_INSTANCE_ID, 1)
        state.integrate_occupancy(pack_keys(np.array([[-1, 0, 0]])), hit=False)
        assert_snapshot_round_trip(state, tmp_path)
        text = (tmp_path / "map.json").read_text()
        assert '"cells":[{"instance_counts":{},"key":[-1,0,0],"log_odds":-0.4054651081081643}' in text
        assert '{"instance_counts":{"0":1,"10":7,"2":4},"key":[0,0,0],"log_odds":0.0}' in text

    @pytest.mark.parametrize("chunk_rows", [voxelmap._CHUNK_ROWS, 7])
    def test_noisy_scene(self, noisy_state, tmp_path, chunk_rows, monkeypatch):
        assert len(noisy_state.cells) > 7 * 100 and len(noisy_state.instances) > 10
        monkeypatch.setattr(voxelmap, "_CHUNK_ROWS", chunk_rows)
        assert_snapshot_round_trip(noisy_state, tmp_path)


def argmax_owners(cells: list[dict[int, int]]) -> list[int]:
    """The owner table's argmax owner of each cell, for cells (i, 0, 0) holding ``cells[i]``."""
    state = MapState(voxel_size=0.1)
    while state._next_instance_id <= max(max(counts) for counts in cells):
        state.new_instance()
    for i, counts in enumerate(cells):
        for instance_id, count in counts.items():
            state.add_instance_evidence((i, 0, 0), instance_id, count)
    return state.owner_table().argmax_owners().tolist()


class TestArgmaxOwner:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.integers(0, 8), st.integers(1, 3), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_sorted_max_expression(self, cells):
        assert argmax_owners(cells) == [
            max(sorted(counts), key=lambda i: counts[i]) for counts in cells
        ]

    def test_ties_go_to_smallest_id(self):
        assert argmax_owners([{5: 2, 3: 2, 9: 1}, {7: 4}]) == [3, 7]


class TestAtomicWrite:
    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path) as handle:
                handle.write("half of the new")
                raise KeyboardInterrupt
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_complete_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with atomic_write(path) as handle:
            handle.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_snapshot_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(small_snapshot()))
        before = path.read_bytes()
        state = MapState(voxel_size=0.1)

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            state.save_snapshot(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.json"]
