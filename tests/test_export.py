import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland import export
from voxeland.export import (
    entropy_colors,
    export_entropy_layer,
    export_instance_map,
    export_semantic_map,
    layer_h_max,
    write_ply,
)
from voxeland.uncertainty import UncertaintyLayer, geometric_entropy_map, semantic_entropy_map
from voxeland.voxelmap import MapState, SnapshotError, pack_keys

from oracles import (
    OracleMap,
    cells_of,
    oracle_entropy_color,
    oracle_export_entropy_layer,
    oracle_export_instance_map,
    oracle_export_semantic_map,
    oracle_geometric_entropy_map,
    oracle_semantic_entropy_map,
    oracle_snapshot_dict,
    oracle_write_ply,
)
from test_fusion import clutter_map_without_refinement


def small_state():
    state = MapState(voxel_size=0.02)
    a = state.new_instance()
    b = state.new_instance()
    state.instances[a].category_evidence = {"chair": 2.0}
    state.instances[b].category_evidence = {"chair": 0.5, "table": 0.5}
    state.register_category("chair")
    state.register_category("table")
    state.add_instance_evidence((0, 0, 0), a, 4)
    state.add_instance_evidence((1, 0, 0), a, 1)
    state.add_instance_evidence((1, 0, 0), b, 1)
    state.add_instance_evidence((2, 0, 0), 0, 3)
    return state


class TestColormap:
    def test_blue_at_zero_red_at_max(self):
        assert entropy_colors([0.0, 1.0], 1.0).tolist() == [[0, 0, 255], [255, 0, 0]]

    def test_clipped_above_max(self):
        assert entropy_colors([5.0], 1.0).tolist() == [[255, 0, 0]]

    def test_h_max_is_log_of_support(self):
        state = small_state()
        assert layer_h_max(state, "geometric") == math.log(3)  # unknown + 2
        assert layer_h_max(state, "semantic") == math.log(3)  # unknown, chair, table


class TestPlyExports:
    def test_entropy_layer_with_sidecar(self, tmp_path):
        state = small_state()
        layer = geometric_entropy_map(state)
        ply_path = tmp_path / "geom.ply"
        export_entropy_layer(state, layer, ply_path)
        lines = ply_path.read_text().splitlines()
        assert lines[0] == "ply"
        n_vertices = int(next(l for l in lines if l.startswith("element vertex")).split()[-1])
        assert n_vertices == 3
        sidecar = json.loads((tmp_path / "geom.ply.json").read_text())
        assert sidecar["kind"] == "geometric"
        assert sidecar["unit"] == "nats"
        assert len(sidecar["values"]) == 3
        by_key = {tuple(v["key"]): v["entropy"] for v in sidecar["values"]}
        assert by_key[(0, 0, 0)] == 0.0
        assert by_key[(1, 0, 0)] == 1.0  # evidence {1, 1}

    def test_vertex_positions_are_voxel_centers(self, tmp_path):
        state = small_state()
        export_instance_map(state, tmp_path / "inst.ply")
        lines = (tmp_path / "inst.ply").read_text().splitlines()
        body = lines[lines.index("end_header") + 1 :]
        first = [float(x) for x in body[0].split()[:3]]
        assert first == pytest.approx([0.01, 0.01, 0.01])

    def test_semantic_map_written(self, tmp_path):
        state = small_state()
        export_semantic_map(state, tmp_path / "sem.ply")
        assert (tmp_path / "sem.ply").read_text().startswith("ply")

    def test_write_ply_counts(self, tmp_path):
        points = np.zeros((2, 3))
        colors = np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8)
        write_ply(tmp_path / "two.ply", points, colors)
        text = (tmp_path / "two.ply").read_text()
        assert "element vertex 2" in text
        assert text.strip().splitlines()[-1].endswith("0 0 255")

    def test_semantic_layer_values_match_mixture(self, tmp_path):
        state = small_state()
        layer = semantic_entropy_map(state)
        export_entropy_layer(state, layer, tmp_path / "sem.ply")
        sidecar = json.loads((tmp_path / "sem.ply.json").read_text())
        by_key = {tuple(v["key"]): v["entropy"] for v in sidecar["values"]}
        assert by_key[(2, 0, 0)] == 0.0  # pure unknown voxel
        assert by_key[(0, 0, 0)] == 0.0  # pure chair


LABELS = ["chair", "table", "bed", "unknown", "ghost"]  # "ghost" is never registered


@st.composite
def export_maps(draw):
    """Maps with negative and far keys, tied and multi-owner cells, cells
    without evidence, and instances without category evidence."""
    state = MapState(voxel_size=draw(st.sampled_from([0.02, 0.05, 0.3, 1.0])))
    for label in draw(st.lists(st.sampled_from(LABELS[:3]), unique=True)):
        state.register_category(label)
    for _ in range(draw(st.integers(0, 5))):
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = draw(
            st.dictionaries(st.sampled_from(LABELS), st.sampled_from([0.25, 0.5, 1.0, 2.7]), max_size=3)
        )
    state.instances[0].category_evidence = draw(
        st.dictionaries(st.sampled_from(LABELS), st.just(1.0), max_size=1)
    )
    near = st.integers(-2, 2)
    anywhere = st.integers(-(2**20), 2**20 - 1)
    keys = draw(
        st.lists(
            st.one_of(st.tuples(near, near, near), st.tuples(anywhere, near, anywhere)),
            unique=True,
            max_size=40,
        )
    )
    ids = sorted(state.instances)
    for key in keys:
        owners = draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 4), max_size=4))
        if not owners:
            state.integrate_occupancy(pack_keys(np.array([key])), hit=False)  # a cell without evidence
        for instance_id, count in owners.items():
            state.add_instance_evidence(key, instance_id, count)
    state.frames_integrated = draw(st.integers(0, 50))
    return state


def layer_items(layer):
    """A layer's values in order, with each float's exact bits."""
    return layer.kind, layer.generated_at_frame, [(k, v.hex()) for k, v in layer.values.items()]


def assert_exports_match_oracle(state):
    """Layers equal value for value in key order; all six files equal byte for byte."""
    model = OracleMap.from_state(state)
    layers = [geometric_entropy_map(state), semantic_entropy_map(state)]
    expected = [oracle_geometric_entropy_map(model), oracle_semantic_entropy_map(model)]
    assert [layer_items(layer) for layer in layers] == [layer_items(layer) for layer in expected]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new"), Path(tmp, "old")
        new.mkdir()
        old.mkdir()
        for directory, source, entropy_export, instance_export, semantic_export in (
            (new, state, export_entropy_layer, export_instance_map, export_semantic_map),
            (old, model, oracle_export_entropy_layer, oracle_export_instance_map, oracle_export_semantic_map),
        ):
            entropy_export(source, layers[0], directory / "geom_entropy.ply")
            entropy_export(source, layers[1], directory / "sem_entropy.ply")
            instance_export(source, directory / "instances.ply")
            semantic_export(source, directory / "semantics.ply")
        names = sorted(path.name for path in old.iterdir())
        assert sorted(path.name for path in new.iterdir()) == names
        assert len(names) == 6
        for name in names:
            assert (new / name).read_bytes() == (old / name).read_bytes(), name


@pytest.fixture(scope="module")
def noisy_state(tmp_path_factory):
    return clutter_map_without_refinement(tmp_path_factory.mktemp("noisy"))


class TestExportsMatchOracle:
    """The array exports and layers against the per-cell code they replace."""

    @settings(max_examples=150, deadline=None)
    @given(export_maps())
    def test_random_maps(self, state):
        assert_exports_match_oracle(state)

    def test_empty_map(self):
        assert_exports_match_oracle(MapState(voxel_size=0.05))

    @pytest.mark.parametrize("chunk_rows", [export._CHUNK_ROWS, 7])
    def test_noisy_scene(self, noisy_state, chunk_rows, monkeypatch):
        monkeypatch.setattr(export, "_CHUNK_ROWS", chunk_rows)
        assert sum(len(cell.instance_counts) > 1 for cell in cells_of(noisy_state).values()) >= 50
        assert_exports_match_oracle(noisy_state)

    def test_signed_zeros_and_non_finite_values(self, tmp_path):
        points = np.array([[0.0, -0.0, 1e-7], [-0.0, 0.0, -1e-7], [np.nan, np.inf, -np.inf]])
        colors = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]], dtype=np.uint8)
        write_ply(tmp_path / "new.ply", points, colors)
        oracle_write_ply(tmp_path / "old.ply", points, colors)
        assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "old.ply").read_bytes()
        values = {(0, 0, 0): 0.0, (0, 0, 1): -0.0, (1, 0, 0): math.nan, (2, 0, 0): -math.inf}
        layer = UncertaintyLayer(kind="geometric", values=values)
        export_entropy_layer(MapState(voxel_size=0.1), layer, tmp_path / "new_layer.ply")
        oracle_export_entropy_layer(MapState(voxel_size=0.1), layer, tmp_path / "old_layer.ply")
        for suffix in ("ply", "ply.json"):
            assert (tmp_path / f"new_layer.{suffix}").read_bytes() == (
                tmp_path / f"old_layer.{suffix}"
            ).read_bytes()

    def test_cells_with_zero_evidence(self):
        """Every count in the map is at least 1, so no reader needs a case
        for a zero count: a snapshot holding one is rejected on load."""
        snapshot = oracle_snapshot_dict(small_state())
        snapshot["cells"][0]["instance_counts"]["1"] = 0
        with pytest.raises(SnapshotError, match="below 1"):
            MapState.from_dict(snapshot)

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-50, 50), st.integers(-(2**20), 2**20 - 1), st.integers(-3, 3)),
            st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 0.1])),
            max_size=30,
        ),
        st.sampled_from(["geometric", "semantic"]),
    )
    def test_layers_of_any_values(self, values, kind):
        state = MapState(voxel_size=0.1)
        layer = UncertaintyLayer(kind=kind, values=values, generated_at_frame=7)
        with tempfile.TemporaryDirectory() as tmp:
            export_entropy_layer(state, layer, Path(tmp, "new.ply"))
            oracle_export_entropy_layer(state, layer, Path(tmp, "old.ply"))
            for suffix in ("ply", "ply.json"):
                assert Path(tmp, f"new.{suffix}").read_bytes() == Path(tmp, f"old.{suffix}").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 255.5 / 255, 0.5 / 255]),
            ),
            max_size=20,
        ),
        st.sampled_from([0.0, -1.0, 0.5, math.log(2), math.log(3), 1.0]),
    )
    def test_entropy_color_and_ply_rows(self, values, h_max):
        assert [tuple(c) for c in entropy_colors(values, h_max).tolist()] == [
            oracle_entropy_color(v, h_max) for v in values
        ]
        points = np.array(values + [0.0] * (-len(values) % 3)).reshape(-1, 3)
        colors = np.arange(points.size, dtype=np.uint8).reshape(-1, 3)
        with tempfile.TemporaryDirectory() as tmp:
            write_ply(Path(tmp, "new.ply"), points, colors)
            oracle_write_ply(Path(tmp, "old.ply"), points, colors)
            assert Path(tmp, "new.ply").read_bytes() == Path(tmp, "old.ply").read_bytes()


def test_interrupted_ply_write_keeps_previous_files(tmp_path, monkeypatch):
    """An export stopped after its first chunk of rows leaves the earlier
    PLY and sidecar as they were and no temporary file behind."""
    state = small_state()
    layer = geometric_entropy_map(state)
    export_entropy_layer(state, layer, tmp_path / "geom.ply")
    before = {name: (tmp_path / name).read_bytes() for name in ("geom.ply", "geom.ply.json")}
    monkeypatch.setattr(export, "_CHUNK_ROWS", 1)
    original = export._format_each
    calls = []

    def interrupt_second_chunk(values, format_one):
        calls.append(len(values))
        if len(calls) > 3:
            raise KeyboardInterrupt
        return original(values, format_one)

    monkeypatch.setattr(export, "_format_each", interrupt_second_chunk)
    layer.values = {key: value + 0.5 for key, value in layer.values.items()}
    with pytest.raises(KeyboardInterrupt):
        export_entropy_layer(state, layer, tmp_path / "geom.ply")
    assert sorted(os.listdir(tmp_path)) == sorted(before)
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
