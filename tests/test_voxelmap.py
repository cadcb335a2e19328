import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxeland import atomic
from voxeland.atomic import atomic_write
from voxeland.evidence import NoEvidenceError, probabilities
from voxeland.voxelmap import (
    SNAPSHOT_SCHEMA_VERSION,
    UNKNOWN_INSTANCE_ID,
    MapState,
    Observation,
    OccupancyParams,
    OwnerTable,
    SnapshotError,
    overlap_counts,
    overlap_scores,
    pack_keys,
    points_to_keys,
    unpack_key_array,
)

from fuzzing import mutate_one_value
from maps import add_evidence
from oracles import (
    OracleMap,
    cells_of,
    check_storage,
    footprint,
    footprints,
    oracle_argmax_owner,
    oracle_overlap_scores,
    oracle_snapshot_dict,
    oracle_voxel_category_distribution,
    unpack_keys,
    world_to_key,
)
from snapshot_records import RECORD_NAMES, corrupted_snapshot, declare_shape, read_records, schema_2_snapshot
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

    def test_unkeyable_points_raise_without_a_warning(self):
        """A NaN or infinite point, or one whose quotient overflows to inf, is
        one ValueError naming the voxel size, with no numpy warning."""
        for point in ([math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf], [1e300, 0, 0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="voxel of size 1e-10"):
                    points_to_keys(np.array([point]), 1e-10)

    def test_keys_at_the_packable_limits(self):
        """Keys at both limits of [-2^20, 2^20) are accepted, and one step outside raises."""
        low, high = -(1 << 20), (1 << 20) - 1
        keys = points_to_keys(np.array([[low * 0.5, high * 0.5, 0.25]]), 0.5)
        assert keys.tolist() == [[low, high, 0]]
        for outside in (low - 1, high + 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="voxel of size 0.5"):
                    points_to_keys(np.array([[0.0, outside * 0.5, 0.0]]), 0.5)

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(-1000, 1000, (500, 3)).astype(np.int64)
        packed = pack_keys(keys)
        unpacked = unpack_key_array(packed)
        assert unpacked.dtype == np.int64 and unpacked.tolist() == keys.tolist()

    def test_packed_order_is_key_order(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(-(1 << 20), 1 << 20, (500, 3)).astype(np.int64)
        keys[:4] = [[-(1 << 20)] * 3, [(1 << 20) - 1] * 3, [-1, 0, 0], [0, -1, (1 << 20) - 1]]
        packed = pack_keys(keys)
        assert unpack_key_array(np.sort(packed)).tolist() == sorted(keys.tolist())
        with pytest.raises(ValueError, match="packable"):
            pack_keys(np.array([[0, 0, 1 << 20]]))



@pytest.mark.parametrize("voxel_size", [float("nan"), float("inf"), float("-inf"), 0.0, -0.02])
def test_voxel_size_must_be_finite_and_positive(voxel_size):
    with pytest.raises(ValueError, match="voxel_size must be finite and positive"):
        MapState(voxel_size=voxel_size)


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
    def test_invalid_params_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            OccupancyParams(**kwargs)
        with pytest.raises(SnapshotError):
            load_corrupted(tmp_path, MapState(voxel_size=0.05), lambda r: r["header"]["occupancy"].update(kwargs))

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
        add_evidence(state, (0, 0, 0), k2, 5)
        assert cells_of(state)[(0, 0, 0)].instance_counts == {k2: 5}
        assert cells_of(state)[(0, 0, 0)].log_odds == 0.0
        assert state.voxel_counts()[k2] == 1

    def test_accumulation(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        add_evidence(state, (0, 0, 0), k2, 5)
        add_evidence(state, (0, 0, 0), k2, 3)
        assert cells_of(state)[(0, 0, 0)].instance_counts == {k2: 8}
        assert state.voxel_counts()[k2] == 1

    def test_batch_adds_repeated_keys_and_broadcasts_one_count(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        add_evidence(state, [(1, 0, 0), (0, 0, 0), (1, 0, 0)], k2, [2, 5, 3])
        add_evidence(state, [(0, 0, 0), (-4, 0, 0)], k2, 1)
        assert {key: cell.instance_counts for key, cell in cells_of(state).items()} == {
            (-4, 0, 0): {k2: 1},
            (0, 0, 0): {k2: 6},
            (1, 0, 0): {k2: 5},
        }
        assert state.voxel_counts()[k2] == 3
        check_storage(state)

    def test_support_expansion(self):
        state = MapState(voxel_size=0.02)
        k2 = state.new_instance()
        k7 = state.new_instance()
        add_evidence(state, (0, 0, 0), k2, 5)
        add_evidence(state, (0, 0, 0), k7, 1)
        cell = cells_of(state)[(0, 0, 0)]
        assert cell.instance_counts == {k2: 5, k7: 1}
        dist = probabilities(cell.instance_counts)
        assert dist[k7] == pytest.approx(1.0 / 6.0, abs=1e-12)


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
        add_evidence(state, (0, 0, 0), instance_id, count)
    (cell,) = cells_of(state).values()
    return oracle_voxel_category_distribution(cell.instance_counts, state)


class TestVoxelInstanceDistribution:
    def test_mixed_cell(self):
        assert weights_of({2: 3, 0: 1}) == {"c2": 0.75, "unknown": 0.25}

    def test_unknown_only(self):
        assert weights_of({0: 4}) == {"unknown": 1.0}

    def test_three_way(self):
        assert weights_of({1: 1, 2: 1, 3: 2}) == {"c1": 0.25, "c2": 0.25, "c3": 0.5}

    def test_empty_cell_is_error(self):
        with pytest.raises(NoEvidenceError, match="no evidence"):
            oracle_voxel_category_distribution({}, MapState(voxel_size=0.02))


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
            add_evidence(state, (i, j, k), ids[which], count)
            model.add_instance_evidence((i, j, k), ids[which], count)
        for which, instance_id in enumerate(ids):
            mine = [(op[1:4], op[4]) for op in ops if op[0] == which]
            if mine:
                add_evidence(batched, [key for key, _ in mine], instance_id, [c for _, c in mine])
        check_storage(state)
        assert oracle_snapshot_dict(state) == model.to_dict()
        assert oracle_snapshot_dict(batched)["cells"] == model.to_dict()["cells"]
        for instance_id in ids:
            assert set(unpack_keys(footprint(state, instance_id)[0])) == {
                key
                for key, cell in model.cells.items()
                if cell.instance_counts.get(instance_id, 0) > 0
            }
            assert state.voxel_counts()[instance_id] == model.instances[instance_id].voxel_count

    def test_audit_detects_corruption(self, tmp_path):
        state = MapState(voxel_size=0.05)
        k = state.new_instance()
        add_evidence(state, (0, 0, 0), k, 1)
        with pytest.raises(SnapshotError, match="owner counts sum to 7, not to the 1 owner ids"):
            load_corrupted(tmp_path, state, lambda r: r["owner counts"].fill(7))


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
                add_evidence(state, (0, 0, 0), instance_id, count)
        if not any(dense_counts):
            return
        fresh = state.new_instance()
        add_evidence(state, (0, 0, 0), fresh, new_count)
        sparse_dist = probabilities(cells_of(state)[(0, 0, 0)].instance_counts)
        dense = dense_counts + [new_count]
        total = sum(dense)
        for instance_id, count in zip(ids + [fresh], dense):
            if count > 0:
                assert sparse_dist[instance_id] == pytest.approx(count / total, abs=1e-12)
            else:
                assert sparse_dist.get(instance_id, 0.0) == 0.0


def small_state() -> MapState:
    """A valid map with one of each kind of entry."""
    state = MapState(voxel_size=0.05)
    a = state.new_instance()
    state.instances[a].category_evidence = {"chair": 1.5}
    state.register_category("chair")
    add_evidence(state, (0, -1, 2), a, 3)
    add_evidence(state, (0, -1, 2), UNKNOWN_INSTANCE_ID, 1)
    state.integrate_occupancy(pack_keys(np.array([[0, -1, 2]])), hit=True)
    state.instances[a].observations.append(
        Observation(frame_id=0, category="chair", confidence=0.9, pixel_bbox=(1, 2, 3, 4))
    )
    return state


OBSERVATION = {
    "frame_id": 12, "category": "chair", "confidence": 0.9, "pixel_bbox": [1, 2, 3, 4], "view_path": None,
}


def load_corrupted(tmp_path, state: MapState, corrupt) -> MapState:
    """Load ``state``'s snapshot after ``corrupt`` has changed its records."""
    return MapState.load_snapshot(corrupted_snapshot(tmp_path / "map.vxl", state, corrupt))


def replaced(name, change):
    """A corruption that replaces record ``name`` with ``change`` of it."""
    return lambda records: records.update({name: change(records[name])})


def both_cell_records(change):
    """A corruption that applies ``change`` to the cell keys and the records
    aligned with them, their log-odds and owner counts."""
    return lambda records: records.update(
        {name: change(records[name]) for name in ("cell keys", "cell log-odds", "owner counts")}
    )


def swapped_first_two(array):
    return np.concatenate([array[1::-1], array[2:]])


class TestSnapshot:
    def build_state(self, insertion_order):
        state = MapState(voxel_size=0.02)
        a = state.new_instance()
        b = state.new_instance()
        state.instances[a].category_evidence = {"chair": 1.5}
        state.instances[b].category_evidence = {"table": 0.4, "chair": 0.2}
        state.register_category("chair")
        state.register_category("table")
        # (0, 0, 1) is owned by both; the carved (-1, 0, 0) by neither
        cells = [((0, 0, 0), a, 3), ((1, 0, 0), b, 2), ((0, 1, 0), a, 1), ((0, 0, 1), b, 5), ((0, 0, 1), a, 4)]
        for key, instance_id, count in (
            cells if insertion_order == "forward" else list(reversed(cells))
        ):
            add_evidence(state, key, instance_id, count)
            state.integrate_occupancy(pack_keys(np.array([key])), hit=True)
        state.integrate_occupancy(pack_keys(np.array([[-1, 0, 0]])), hit=False)
        state.frames_integrated = 4
        return state

    def test_save_load_identity(self, tmp_path):
        state = self.build_state("forward")
        path = tmp_path / "map.vxl"
        state.save_snapshot(path)
        loaded = MapState.load_snapshot(path)
        assert oracle_snapshot_dict(loaded) == oracle_snapshot_dict(state)
        loaded.save_snapshot(tmp_path / "map2.vxl")
        assert (tmp_path / "map.vxl").read_bytes() == (tmp_path / "map2.vxl").read_bytes()

    def test_snapshot_independent_of_insertion_order(self, tmp_path):
        self.build_state("forward").save_snapshot(tmp_path / "a.vxl")
        self.build_state("reverse").save_snapshot(tmp_path / "b.vxl")
        assert (tmp_path / "a.vxl").read_bytes() == (tmp_path / "b.vxl").read_bytes()

    def test_same_bytes_from_another_process(self, tmp_path):
        """A save in a fresh interpreter, with its own hash seed, writes the same bytes."""
        script = "import sys; import test_voxelmap; test_voxelmap.small_state().save_snapshot(sys.argv[1])"
        tests = Path(__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        env["PYTHONHASHSEED"] = "random"
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "other.vxl")], check=True, env=env)
        small_state().save_snapshot(tmp_path / "here.vxl")
        assert (tmp_path / "other.vxl").read_bytes() == (tmp_path / "here.vxl").read_bytes()

    def test_wrong_schema_version_rejected(self, tmp_path):
        for version in (SNAPSHOT_SCHEMA_VERSION + 98, 1, 0, None, "2", True, 2.0):
            with pytest.raises(SnapshotError, match="schema_version"):
                load_corrupted(
                    tmp_path, self.build_state("forward"), lambda r: r["header"].update(schema_version=version)
                )
        with pytest.raises(SnapshotError, match="schema_version"):
            load_corrupted(tmp_path, self.build_state("forward"), lambda r: r["header"].pop("schema_version"))

    @pytest.mark.parametrize("path", [("categories",), ("occupancy", "p_hit"), ("instances", 0, "flagged")])
    def test_missing_key_rejected(self, tmp_path, path):
        def corrupt(records):
            parent = records["header"]
            for step in path[:-1]:
                parent = parent[step]
            del parent[path[-1]]

        with pytest.raises(SnapshotError, match=repr(path[-1])):
            load_corrupted(tmp_path, self.build_state("forward"), corrupt)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (replaced("header", lambda h: np.arange(3)), "header record is not a 1-d \\|u1 array"),
            (replaced("header", lambda h: np.frombuffer(b'{"schema_version":', np.uint8)), "JSONDecodeError"),
            (replaced("header", lambda h: np.frombuffer(b"\xff\xfe", np.uint8)), "UnicodeDecodeError"),
            (replaced("header", lambda h: np.frombuffer(b"[2]", np.uint8)), "schema_version None"),
            (replaced("cell keys", lambda k: k.astype(float)), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k.astype(np.int32)), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k.astype(">i8")), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k > 0), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k.astype(str)), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k.reshape(-1, 1)), "cell keys record is not a 1-d <i8 array"),
            (replaced("cell keys", lambda k: k - k[1]), "cell key -\\d+ is negative"),
            (both_cell_records(lambda a: np.repeat(a, 2)), "cell keys are not strictly increasing"),
            (both_cell_records(lambda a: a[::-1]), "cell keys are not strictly increasing"),
            (replaced("cell keys", lambda k: k[:-1]), "not as many as their keys"),
            (replaced("cell log-odds", lambda v: v.astype(np.float32)), "log-odds record is not a 1-d <f8"),
            (replaced("cell log-odds", lambda v: v.astype(np.int64)), "log-odds record is not a 1-d <f8"),
            (replaced("cell log-odds", lambda v: v.astype(str)), "log-odds record is not a 1-d <f8"),
            (replaced("cell log-odds", lambda v: v > 0), "log-odds record is not a 1-d <f8"),
            (replaced("cell log-odds", lambda v: np.append(v, 0.0)), "not as many as their keys"),
            (replaced("cell log-odds", lambda v: np.where(v > 0, np.nan, v)), "log-odds is not finite"),
            (replaced("cell log-odds", lambda v: np.where(v > 0, -np.inf, v)), "log-odds is not finite"),
            (replaced("owner counts", lambda c: c.astype(np.int64)), "owner counts record is not a 1-d <u2"),
            (replaced("owner counts", lambda c: c.astype(">u2")), "owner counts record is not a 1-d <u2"),
            (replaced("owner counts", lambda c: c[:-1]), "not as many as their keys"),
            (replaced("owner counts", lambda c: c + 1), "owner counts sum to 10, not to the 5 owner ids"),
            (replaced("owner counts", lambda c: c[[0, 1, 1, 3, 4]]), "owner counts sum to 4, not to the 5"),
            (replaced("owner ids", lambda i: i.astype(np.int64)), "owner ids record is not a 1-d <i4"),
            (replaced("owner ids", lambda i: i.astype(np.uint32)), "owner ids record is not a 1-d <i4"),
            (replaced("owner ids", lambda i: i[[0, 2, 1, 3, 4]]), "a cell's owner ids are not strictly increasing"),
            (replaced("owner ids", lambda i: i[[0, 1, 1, 3, 4]]), "a cell's owner ids are not strictly increasing"),
            (replaced("owner ids", lambda i: i + 5), "owner id 6 is not a listed instance"),
            (replaced("owner ids", lambda i: i - 2), "owner id -1 is not a listed instance"),
            (replaced("evidence counts", lambda c: c.astype(float)), "evidence counts record is not a 1-d <i4"),
            (replaced("evidence counts", lambda c: c.astype(str)), "evidence counts record is not a 1-d <i4"),
            (replaced("evidence counts", lambda c: c > 0), "evidence counts record is not a 1-d <i4"),
            (replaced("evidence counts", lambda c: np.where(c == c.max(), 0, c)), "evidence count 0 is below 1"),
            (replaced("evidence counts", lambda c: c - c.max() - 1), "is below 1"),
            (replaced("evidence counts", lambda c: c[:-1]), "not as many as their keys"),
            (lambda r: r.pop("evidence counts"), "EOF: reading magic string"),
            (lambda r: r.update(extra=np.zeros(1)), "trailing bytes after the last record"),
            (replaced("evidence counts", lambda c: c.astype(object)), "Object arrays cannot be loaded"),
        ],
        ids=[
            "int-header", "truncated-json", "not-utf-8", "json-list", "float-keys", "int32-keys",
            "big-endian-keys", "bool-keys", "string-keys", "2d-keys", "negative-key", "key-twice",
            "keys-unsorted", "keys-short", "float32-log-odds", "int-log-odds", "string-log-odds",
            "bool-log-odds", "log-odds-long", "nan-log-odds", "inf-log-odds", "int64-owner-counts",
            "big-endian-owner-counts", "owner-counts-short", "owner-counts-over", "owner-counts-under",
            "int64-ids", "uint32-ids", "ids-descending-in-a-run", "id-twice-in-a-run", "unlisted-id",
            "negative-id", "float-counts", "string-counts", "bool-counts", "zero-count", "negative-count",
            "counts-short", "missing-record", "extra-record", "pickled-counts",
        ],
    )
    def test_bad_records_rejected(self, tmp_path, corrupt, message):
        state = self.build_state("forward")
        assert oracle_snapshot_dict(load_corrupted(tmp_path, state, lambda r: None)) == oracle_snapshot_dict(state)
        with pytest.raises(SnapshotError, match=message):
            load_corrupted(tmp_path, state, corrupt)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda data: b"", "EOF: reading magic string"),
            (lambda data: b"\x93NUMPX" + data[6:], "magic string is not correct"),
            (lambda data: data[:300], "the header record declares 512 bytes, but 172 are left"),
            (lambda data: data[:-1], "the evidence counts record declares 20 bytes, but 19 are left"),
            (lambda data: data + b"\0", "trailing bytes after the last record"),
            (lambda data: data.replace(b"'<f8'", b"'<q9'"), "descr is not a valid dtype descriptor: '<q9'"),
            (lambda data: b'{"schema_version": 1, "cells": [', "schema-1 JSON snapshots are no longer read"),
        ],
        ids=["empty", "bad-magic", "truncated", "one-byte-short", "trailing-byte", "bad-descr", "schema-1"],
    )
    def test_bad_files_rejected(self, tmp_path, corrupt, message):
        path = tmp_path / "map.vxl"
        self.build_state("forward").save_snapshot(path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(SnapshotError, match=message) as raised:
            MapState.load_snapshot(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize(
        "old, new", [(b"'descr'", b"'d\\oscr'"), (b"'|u1'", b"'|a1'")], ids=["invalid-escape", "dtype-alias-a"]
    )
    def test_header_warning_is_one_snapshot_error(self, tmp_path, action, old, new):
        """numpy parses a record header as a Python literal, which warns of an
        invalid escape sequence (a DeprecationWarning, from Python 3.12 a
        SyntaxWarning, shown by default), and numpy 2 warns of the dtype
        alias 'a'; whatever the warning filters, the file is one
        SnapshotError and no warning is shown."""
        path = tmp_path / "map.vxl"
        self.build_state("forward").save_snapshot(path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(SnapshotError) as raised:
                MapState.load_snapshot(path)
        assert caught == []
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_record_larger_than_file_rejected_before_allocation(self, tmp_path, name):
        """A header declaring far more elements than the file holds fails
        with SnapshotError, not with numpy's MemoryError."""
        path = tmp_path / "map.vxl"
        self.build_state("forward").save_snapshot(path)
        declare_shape(path, name, (9999999999999,))
        with pytest.raises(SnapshotError, match=f"the {name} record declares [1-9]\\d{{12,}} bytes") as raised:
            MapState.load_snapshot(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "name, array, value",
        [
            ("owner counts", "sizes", 1 << 16),
            ("owner counts", "sizes", -1),
            ("owner ids", "ids", 1 << 31),
            ("evidence counts", "counts", 1 << 31),
            ("evidence counts", "counts", -(1 << 31) - 1),
        ],
        ids=["owner-count-over-u2", "negative-owner-count", "id-over-i4", "count-over-i4", "count-under-i4"],
    )
    def test_value_that_does_not_fit_is_refused_before_the_file_opens(self, tmp_path, name, array, value):
        state = self.build_state("forward")
        getattr(state.cells, array)[-1] = value
        path = tmp_path / "map.vxl"
        path.write_bytes(b"previous")
        with pytest.raises(ValueError, match=f"the {name} record cannot hold {value} as"):
            state.save_snapshot(path)
        assert path.read_bytes() == b"previous" and os.listdir(tmp_path) == ["map.vxl"]

    def test_evidence_past_the_record_dtype_is_refused(self, tmp_path):
        state = self.build_state("forward")
        add_evidence(state, (0, 0, 0), 1, (1 << 31) - 3)  # 3 points are already there
        with pytest.raises(ValueError, match=f"the evidence counts record cannot hold {1 << 31} as <i4"):
            state.save_snapshot(tmp_path / "map.vxl")
        assert os.listdir(tmp_path) == []

    def test_schema_2_snapshot_rejected(self, tmp_path):
        path = schema_2_snapshot(tmp_path / "map.vxl", self.build_state("forward"))
        with pytest.raises(SnapshotError, match="schema_version 2 is not 3; .*rebuild the map") as raised:
            MapState.load_snapshot(path)
        assert str(raised.value).startswith(f"{path}: ")

    def test_schema_1_snapshot_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({**oracle_snapshot_dict(small_state()), "schema_version": 1}))
        with pytest.raises(SnapshotError, match="schema-1 JSON snapshots are no longer read; rebuild the map"):
            MapState.load_snapshot(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_header_loads_or_raises_snapshot_error(self, data):
        """Replace or delete one value anywhere in a valid snapshot's header:
        loading either succeeds or raises SnapshotError, never another exception."""
        with tempfile.TemporaryDirectory() as tmp:
            path = corrupted_snapshot(
                Path(tmp, "map.vxl"), small_state(), lambda r: r.update(header=mutate_one_value(data, r["header"]))
            )
            try:
                MapState.load_snapshot(path)
            except SnapshotError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_flipped_or_truncated_bytes_load_or_raise_snapshot_error(self, data):
        """Flip up to three bytes of a valid file and maybe cut it short:
        loading either succeeds or raises SnapshotError, never another exception."""
        saved = bytearray(small_state_bytes())
        for _ in range(data.draw(st.integers(0, 3))):
            position = data.draw(st.integers(0, len(saved) - 1))
            saved[position] ^= data.draw(st.integers(1, 255))
        saved = saved[: data.draw(st.integers(0, len(saved)))] if data.draw(st.booleans()) else saved
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "map.vxl")
            path.write_bytes(saved)
            try:
                MapState.load_snapshot(path)
            except SnapshotError:
                pass

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda s: s.update(next_instance_id=2), "next_instance_id 2"),
            (lambda s: s.update(next_instance_id=0), "next_instance_id 0"),
            (lambda s: s["instances"].pop(0), "unknown instance"),
            (lambda s: s["instances"].append(s["instances"][1]), "instance is listed twice"),
            (lambda s: s["instances"][1].update(flagged="false"), "flagged 'false' is not bool"),
            (lambda s: s["instances"][1].update(flagged=1), "flagged 1 is not bool"),
            (lambda s: s["instances"][1].update(id=1.7), "instance id 1.7 is not int"),
            (lambda s: s["instances"][1].update(id=True), "instance id True is not int"),
            (lambda s: s["instances"][1].update(final_category=["chair"]), "final_category \\['chair'\\] is not str"),
            (lambda s: s["instances"][1].update(final_category=5), "final_category 5 is not str"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "frame_id": "12"}),
             "frame_id '12' is not int"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "pixel_bbox": "abcd"}),
             "pixel_bbox 'abcd' is not list"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "pixel_bbox": [1, 2, 3]}),
             "not four integers"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "pixel_bbox": [1, 2, 3, 4.0]}),
             "not four integers"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "confidence": "0.9"}),
             "confidence '0.9' is not int or float"),
            (lambda s: s["instances"][1]["observations"].append({**OBSERVATION, "view_path": 3}),
             "view_path 3 is not str or NoneType"),
            (lambda s: s["instances"][1]["category_evidence"].update(chair="0.9"),
             "category evidence '0.9' is not int or float"),
            (lambda s: s["instances"][1]["category_evidence"].update(chair=math.nan),
             "category evidence nan is not finite"),
            (lambda s: s["instances"][1]["category_evidence"].update(chair=-5.0),
             "instance 1: category evidence 'chair' of -5.0 is not above 0"),
            (lambda s: s["instances"][1].update(category_evidence={"chair": 0.0, "table": 0}),
             "instance 1: category evidence 'chair' of 0.0 is not above 0"),
            (lambda s: s["categories"].append(5), "category is not a string"),
            (lambda s: s.update(categories="chair"), "categories 'chair' is not list"),
            (lambda s: s["categories"].reverse(), "the category registry does not begin with 'unknown'"),
            (lambda s: s.update(categories=[]), "the category registry does not begin with 'unknown'"),
            (lambda s: s["categories"].append(s["categories"][1]), "category is listed twice"),
            (lambda s: s.update(frames_integrated=2.5), "frames_integrated 2.5 is not int"),
            (lambda s: s.update(next_instance_id=3.0), "next_instance_id 3.0 is not int"),
            (lambda s: s.update(voxel_size=math.nan), "voxel_size nan is not finite"),
            (lambda s: s["occupancy"].update(log_odds_max=math.inf), "log_odds_max inf is not finite"),
            (lambda s: s["occupancy"].update(p_hit="0.7"), "p_hit '0.7' is not int or float"),
        ],
        ids=[
            "next-id-taken", "next-id-zero", "no-unknown-instance", "instance-twice",
            "string-flagged", "int-flagged", "float-id", "bool-id", "list-final-category",
            "int-final-category", "string-frame-id", "string-bbox", "three-bbox", "float-in-bbox",
            "string-confidence", "int-view-path", "string-evidence", "nan-evidence",
            "negative-evidence", "zero-sum-evidence", "int-category",
            "string-categories", "unknown-category-not-first", "no-categories", "category-twice", "float-frames-integrated", "float-next-id", "nan-voxel-size",
            "inf-log-odds-max", "string-p-hit",
        ],
    )
    def test_bad_instance_registry_rejected(self, tmp_path, corrupt, message):
        with pytest.raises(SnapshotError, match=message):
            load_corrupted(tmp_path, self.build_state("forward"), lambda r: corrupt(r["header"]))

    def test_observations_round_trip(self, tmp_path):
        observations = [
            OBSERVATION,
            {**OBSERVATION, "pixel_bbox": None, "view_path": "views/1.ppm", "confidence": 1},
        ]
        loaded = load_corrupted(
            tmp_path, self.build_state("forward"), lambda r: r["header"]["instances"][1].update(observations=observations)
        )
        assert loaded.instances[1].observations[0].pixel_bbox == (1, 2, 3, 4)
        assert type(loaded.instances[1].observations[1].confidence) is float
        assert oracle_snapshot_dict(loaded)["instances"][1]["observations"][0] == OBSERVATION

    def test_loaded_registry_hands_out_fresh_ids(self, tmp_path):
        state = load_corrupted(tmp_path, self.build_state("forward"), lambda r: None)
        fresh = state.new_instance()
        assert fresh == 3 and len(state.instances) == 4

    def test_unknown_instance_preexists(self):
        state = MapState(voxel_size=0.02)
        assert UNKNOWN_INSTANCE_ID in state.instances
        assert state.instances[UNKNOWN_INSTANCE_ID].category_evidence == {}
        assert "unknown" in state.categories


@functools.cache
def small_state_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "map.vxl")
        small_state().save_snapshot(path)
        return path.read_bytes()


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
        # six counts of one key still fit the snapshot's <i4 evidence counts
        for key, count in draw(st.lists(st.tuples(_SNAPSHOT_KEY, st.integers(1, 2**28)), max_size=6)):
            add_evidence(state, key, instance_id, count)
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
        record.category_evidence = draw(st.dictionaries(_SNAPSHOT_TEXT, st.floats(0.0, 10.0, exclude_min=True), max_size=2))
        record.final_category = draw(st.none() | _SNAPSHOT_TEXT)
        record.flagged = draw(st.booleans())
        record.observations = draw(st.lists(observations, max_size=2))
    state.frames_integrated = draw(st.integers(0, 50))
    return state


def with_view_paths(snapshot: dict, change) -> dict:
    """``snapshot``, a dict of :func:`oracle_snapshot_dict`, with ``change``
    applied to every view path that is not None or empty."""
    for instance in snapshot["instances"]:
        for observation in instance["observations"]:
            observation["view_path"] = observation["view_path"] and change(observation["view_path"])
    return snapshot


def absolute(path: str) -> str:
    """The absolute form of ``path``, with POSIX's leading "//" read as "/"."""
    return "/" + os.path.abspath(path).lstrip("/")


def assert_snapshot_round_trip(state: MapState, directory) -> None:
    """The saved records are the map's header, with each view path relative
    to ``directory``, and the owner table's arrays in their records' dtypes;
    loading gives the same map with each view path made absolute and the
    same log-odds bits, and a save after the load writes the same bytes."""
    path = os.path.join(directory, "map.vxl")
    state.save_snapshot(path)
    with open(path, "rb") as handle:
        saved = handle.read()
    records = read_records(path)
    expected = with_view_paths(oracle_snapshot_dict(state), lambda view: os.path.relpath(view, directory))
    del expected["cells"]
    for instance in expected["instances"]:
        del instance["voxel_count"]
    assert records["header"] == expected
    table = state.cells
    for name, array, dtype in [
        ("cell keys", table.keys, "<i8"),
        ("cell log-odds", table.log_odds, "<f8"),
        ("owner counts", table.sizes, "<u2"),
        ("owner ids", table.ids, "<i4"),
        ("evidence counts", table.counts, "<i4"),
    ]:
        assert records[name].dtype == np.dtype(dtype) and records[name].tolist() == array.tolist(), name
    assert records["cell log-odds"].tobytes() == table.log_odds.tobytes()
    loaded = MapState.load_snapshot(path)
    check_storage(loaded)
    assert oracle_snapshot_dict(loaded) == with_view_paths(oracle_snapshot_dict(state), absolute)
    assert loaded.cells.log_odds.tobytes() == state.cells.log_odds.tobytes()
    loaded.save_snapshot(path)
    with open(path, "rb") as handle:
        assert handle.read() == saved


@pytest.fixture(scope="module")
def noisy_state(tmp_path_factory):
    return clutter_map_without_refinement(tmp_path_factory.mktemp("noisy"))


class TestSnapshotRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(snapshot_maps())
    def test_random_maps(self, state):
        with tempfile.TemporaryDirectory() as tmp:
            assert_snapshot_round_trip(state, tmp)

    def test_empty_map(self, tmp_path):
        state = MapState(voxel_size=0.05)
        assert_snapshot_round_trip(state, tmp_path)
        records = read_records(tmp_path / "map.vxl")
        assert [len(records[name]) for name in RECORD_NAMES[1:]] == [0, 0, 0, 0, 0]

    def test_noisy_scene(self, noisy_state, tmp_path):
        assert len(noisy_state.cells) > 7 * 100 and len(noisy_state.instances) > 10
        assert_snapshot_round_trip(noisy_state, tmp_path)


def argmax_owners(cells: list[dict[int, int]]) -> list[int]:
    """The owner table's argmax owner of each cell, for cells (i, 0, 0) holding ``cells[i]``."""
    state = MapState(voxel_size=0.1)
    while state._next_instance_id <= max(max(counts) for counts in cells):
        state.new_instance()
    for i, counts in enumerate(cells):
        for instance_id, count in counts.items():
            add_evidence(state, (i, 0, 0), instance_id, count)
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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from([0, 1, 2, 9, 10, 11, 12, 20, 100]), st.integers(1, 3), min_size=1, max_size=6
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_oracle_with_ids_out_of_string_order(self, cells):
        """1 to 6 owners per cell with many equal counts, among ids such as 2,
        10 and 100 whose order as strings is not their numeric order."""
        assert argmax_owners(cells) == [oracle_argmax_owner(counts) for counts in cells]

    def test_equal_counts_of_ids_out_of_string_order(self):
        cells = [{10: 3, 2: 3}, {100: 1, 20: 1, 9: 1}, {12: 2, 11: 5, 100: 5}, {0: 1, 10: 2, 2: 2, 11: 2}]
        assert argmax_owners(cells) == [oracle_argmax_owner(counts) for counts in cells] == [2, 9, 11, 2]



# packed keys: a small range, so footprints share voxels, and the largest packed key
PACKED_KEY = st.integers(0, 40) | st.just((1 << 63) - 1)


@st.composite
def footprint_lists(draw):
    """0-6 footprints of sorted unique packed keys, any of them empty, with
    ascending ids and a positive count for each key."""
    ids = sorted(draw(st.lists(st.integers(0, 30), max_size=6, unique=True)))
    footprints = [np.array(sorted(draw(st.sets(PACKED_KEY, max_size=12))), dtype=np.int64) for _ in ids]
    counts = [
        np.array(draw(st.lists(st.integers(1, 4), min_size=len(keys), max_size=len(keys))), dtype=np.int64)
        for keys in footprints
    ]
    return ids, footprints, counts


def table_of(ids, footprints, counts) -> OwnerTable:
    """The owner table of the footprints, each added in turn, last id first."""
    table = OwnerTable.empty()
    for instance_id, keys, values in reversed(list(zip(ids, footprints, counts))):
        table.add_evidence(keys, instance_id, values)
    return table


def runs_of(table: OwnerTable) -> dict[int, dict[int, int]]:
    """Each cell of the table with its counts by owner id, in the run's order."""
    return {
        key: dict(zip(table.ids[start:stop].tolist(), table.counts[start:stop].tolist()))
        for key, start, stop in zip(table.keys.tolist(), table.bounds[:-1].tolist(), table.bounds[1:].tolist())
    }


def cells_by_key(ids, footprints, counts) -> dict[int, dict[int, int]]:
    """Each key of some footprint with its count by footprint id."""
    cells: dict[int, dict[int, int]] = {}
    for instance_id, keys, values in zip(ids, footprints, counts):
        for key, count in zip(keys.tolist(), values.tolist()):
            cells.setdefault(key, {})[instance_id] = count
    return cells


class TestOwnerTableAgainstDict:
    """The owner table and ``overlap_counts`` against a dict of cell to
    {id: count} and against set intersections."""

    @settings(max_examples=300, deadline=None)
    @given(footprint_lists())
    def test_layout_contested_and_argmax(self, case):
        ids, drawn, counts = case
        cells = cells_by_key(ids, drawn, counts)
        table = table_of(ids, drawn, counts)
        assert table.keys.tolist() == sorted(cells)
        assert table.starts.tolist() == (np.cumsum(table.sizes) - table.sizes).tolist()
        assert int(table.sizes.sum()) == len(table.ids) == len(table.counts)
        runs = [slice(start, start + size) for start, size in zip(table.starts.tolist(), table.sizes.tolist())]
        assert [table.ids[run].tolist() for run in runs] == [sorted(cells[key]) for key in sorted(cells)]
        assert [table.counts[run].tolist() for run in runs] == [
            [cells[key][i] for i in sorted(cells[key])] for key in sorted(cells)
        ]
        contested = table.contested()
        shared = [key for key in sorted(cells) if len(cells[key]) > 1]
        assert table.keys[contested.cells].tolist() == shared
        assert contested.sizes.tolist() == [len(cells[key]) for key in shared]
        assert contested.starts.tolist() == (np.cumsum(contested.sizes) - contested.sizes).tolist()
        assert contested.ids.tolist() == [i for key in shared for i in sorted(cells[key])]
        assert contested.counts.tolist() == [cells[key][i] for key in shared for i in sorted(cells[key])]
        assert contested.shares.tolist() == [
            cells[key][i] / sum(cells[key].values()) for key in shared for i in sorted(cells[key])
        ]
        assert table.argmax_owners().tolist() == [oracle_argmax_owner(cells[key]) for key in sorted(cells)]
        found = footprints(table, [*ids[::-1], 31])
        assert [(keys.tolist(), values.tolist()) for keys, values in found] == [
            (keys.tolist(), values.tolist()) for keys, values in zip(drawn[::-1], counts[::-1])
        ] + [([], [])]

    @settings(max_examples=300, deadline=None)
    @given(footprint_lists(), footprint_lists())
    def test_overlap_counts_match_set_intersections(self, indexed, queried):
        _, footprints, _ = indexed
        _, queries, _ = queried
        shared = [[set(query.tolist()) & set(keys.tolist()) for keys in footprints] for query in queries]
        plain = overlap_counts(queries, footprints)
        assert plain.dtype == np.int64 and plain.tolist() == [[len(s) for s in row] for row in shared]

    @pytest.mark.parametrize(
        "queries, footprints, expected",
        [
            ([], [], np.zeros((0, 0))),
            ([[1, 2]], [], np.zeros((1, 0))),
            ([], [[1, 2]], np.zeros((0, 1))),
            ([[]], [[], [1]], [[0, 0]]),
            ([[1, 5], []], [[], [0, 1, 5]], [[0, 2], [0, 0]]),
        ],
        ids=["no-footprints-no-queries", "no-footprints", "no-queries", "empty-keys", "empty-beside-full"],
    )
    def test_overlap_counts_edges(self, queries, footprints, expected):
        queries = [np.array(keys, dtype=np.int64) for keys in queries]
        footprints = [np.array(keys, dtype=np.int64) for keys in footprints]
        assert np.array_equal(overlap_counts(queries, footprints), expected)

    def test_empty_table(self):
        table = OwnerTable.empty()
        assert table.keys.tolist() == table.starts.tolist() == table.sizes.tolist() == table.ids.tolist() == []
        assert table.argmax_owners().tolist() == []
        contested = table.contested()
        assert [getattr(contested, f.name).tolist() for f in fields(contested)] == [[]] * 6


@st.composite
def scored_overlaps(draw):
    """Sizes of a column and a row of items, and an overlap of each pair,
    drawn often at a zero union, above the smaller size or past the union."""
    sizes = st.lists(st.integers(0, 40) | st.integers(0, 2**40), max_size=5)
    column, row = draw(sizes), draw(sizes)
    overlap = [
        [draw(st.sampled_from([0, a + b, min(a, b) + 1, a + b + 2]) | st.integers(0, a + b + 2)) for b in row]
        for a in column
    ]
    return overlap, column, row


class TestOverlapScores:
    """``overlap_scores`` against the scalar reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scored_overlaps())
    @example(([[5, 0, 4], [0, 0, 0]], [2, 0], [3, 0, 2]))  # zero unions, zero sizes, ratios above 1
    def test_equals_scalar_reference(self, case):
        overlap, column, row = case
        matrix = np.array(overlap, dtype=np.int64).reshape(len(column), len(row))
        sizes_a, sizes_b = np.array(column, dtype=np.int64)[:, None], np.array(row, dtype=np.int64)
        iou, ios = overlap_scores(matrix, sizes_a, sizes_b)
        expected = [[oracle_overlap_scores(o, a, b) for o, b in zip(line, row)] for line, a in zip(overlap, column)]
        expected = np.array(expected, dtype=float).reshape(len(column), len(row), 2)
        assert iou.dtype == ios.dtype == np.float64
        assert iou.tobytes() == expected[..., 0].tobytes() and ios.tobytes() == expected[..., 1].tobytes()

    @pytest.mark.parametrize(
        "overlap, size_a, size_b, expected",
        [
            (0, 0, 0, (0.0, 0.0)),
            (5, 2, 3, (0.0, 1.0)),
            (1, 0, 4, (1 / 3, 0.0)),
            (4, 2, 3, (1.0, 1.0)),
            (2, 4, 6, (0.25, 0.5)),
        ],
        ids=["all-zero", "zero-union", "zero-size", "ratios-above-one", "plain"],
    )
    def test_scalars(self, overlap, size_a, size_b, expected):
        assert tuple(map(float, overlap_scores(overlap, size_a, size_b))) == expected


class TestAtomicWrite:
    @pytest.mark.parametrize("binary", [False, True])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, binary):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(path, binary) as handle:
                handle.write(b"half of the new" if binary else "half of the new")
                raise KeyboardInterrupt
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("binary", [False, True])
    def test_complete_write_replaces_file(self, tmp_path, binary):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with atomic_write(path, binary) as handle:
            handle.write(b"new" if binary else "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_snapshot_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "map.vxl"
        small_state().save_snapshot(path)
        before = path.read_bytes()
        state = MapState(voxel_size=0.1)

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            state.save_snapshot(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.vxl"]

    def test_interrupted_snapshot_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        """A save stopped after its first record leaves the earlier snapshot
        as it was and no temporary file behind."""
        state = MapState(voxel_size=0.1)
        add_evidence(state, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], UNKNOWN_INSTANCE_ID, 2)
        path = tmp_path / "map.vxl"
        state.save_snapshot(path)
        before = path.read_bytes()
        write_array = np.lib.format.write_array
        written = []

        def interrupted_after_first_record(*args, **kwargs):
            if written:
                raise KeyboardInterrupt
            written.append(write_array(*args, **kwargs))

        monkeypatch.setattr(np.lib.format, "write_array", interrupted_after_first_record)
        add_evidence(state, (3, 0, 0), UNKNOWN_INSTANCE_ID, 1)
        with pytest.raises(KeyboardInterrupt):
            state.save_snapshot(path)
        assert written
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.vxl"]


class TestTableWrites:
    """``OwnerTable.insert`` and ``relabel`` against a dict of cell to {id: count}."""

    @settings(max_examples=300, deadline=None)
    @given(footprint_lists(), st.lists(st.tuples(PACKED_KEY, st.integers(0, 30)), max_size=20), st.booleans())
    def test_insert_matches_dict_merge(self, case, pairs, cells_only):
        table = table_of(*case)
        table.log_odds[:] = np.arange(len(table))  # each cell's own value, to follow it
        expected = runs_of(table)
        log_odds = dict(zip(table.keys.tolist(), table.log_odds.tolist()))
        pairs = sorted(set(pairs))
        keys = np.array([key for key, _ in pairs], dtype=np.int64)
        ids = np.array([instance_id for _, instance_id in pairs], dtype=np.int64)
        for key, instance_id in pairs:
            cell = expected.setdefault(key, {})
            if not cells_only:
                cell.setdefault(instance_id, 0)
        keys = np.unique(keys) if cells_only else keys
        rows = table.insert(keys) if cells_only else table.insert(keys, ids)
        assert table.keys[rows].tolist() == keys.tolist()
        assert runs_of(table) == {key: dict(sorted(cell.items())) for key, cell in sorted(expected.items())}
        assert list(runs_of(table)) == sorted(expected)
        assert all(list(run) == sorted(run) for run in runs_of(table).values())
        assert table.log_odds.tolist() == [log_odds.get(key, 0.0) for key in table.keys.tolist()]
        assert table.bounds.tolist() == [0, *np.cumsum(table.sizes).tolist()]
        assert table.owned_cells.tolist() == np.bincount(table.ids, minlength=len(table.owned_cells)).tolist()

    @settings(max_examples=300, deadline=None)
    @given(footprint_lists(), st.data())
    def test_relabels_then_compact_match_dict_merges(self, case, data):
        """A chain of merges, as refinement makes them, then one compaction."""
        table = table_of(*case)
        expected = runs_of(table)
        live = sorted(case[0])
        for _ in range(min(data.draw(st.integers(0, 3)), len(live) - 1)):
            kept, retired = sorted(data.draw(st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True)))
            live.remove(retired)
            for cell in expected.values():
                if retired in cell:
                    cell[kept] = cell.get(kept, 0) + cell.pop(retired)
            table.relabel(retired, kept)
            # a dead entry, left where both owned a cell, heads its run
            for start, stop in zip(table.bounds[:-1].tolist(), table.bounds[1:].tolist()):
                run = table.ids[start:stop].tolist()
                assert run == sorted(run) and run.count(-1) == stop - start - len(set(run) - {-1})
        table.compact()
        assert runs_of(table) == {key: dict(sorted(cell.items())) for key, cell in expected.items()}
        assert all(list(run) == sorted(run) for run in runs_of(table).values())
        assert table.bounds.tolist() == [0, *np.cumsum(table.sizes).tolist()]
        assert table.owned_cells.tolist() == np.bincount(table.ids, minlength=len(table.owned_cells)).tolist()
        assert np.all(table.ids >= 0) and np.all(table.counts >= 1)

    def test_merging_5_into_2_resorts_the_run(self):
        footprints = [np.array([7, 9]), np.array([9]), np.array([8, 9])]
        table = table_of([2, 3, 5], footprints, [np.ones(len(keys), dtype=np.int64) for keys in footprints])
        assert runs_of(table) == {7: {2: 1}, 8: {5: 1}, 9: {2: 1, 3: 1, 5: 1}}
        table.relabel(5, 2)
        assert table.ids.tolist() == [2, 2, -1, 2, 3]
        assert table.counts.tolist() == [1, 1, 1, 2, 1]
        table.compact()
        assert runs_of(table) == {7: {2: 1}, 8: {2: 1}, 9: {2: 2, 3: 1}}
        assert table.ids.tolist() == [2, 2, 2, 3]
