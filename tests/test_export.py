import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxeland import evidence, export
from voxeland.evaluation import predicted_instances
from voxeland.evidence import NoEvidenceError
from voxeland.export import (
    entropy_colors,
    export_entropy_layer,
    export_instance_map,
    export_semantic_map,
    layer_h_max,
    write_ply,
)
from voxeland.uncertainty import geometric_entropy_map, semantic_entropy_map
from voxeland.voxelmap import UNKNOWN_INSTANCE_ID, MapState, SnapshotError, pack_keys, unpack_key_array

from maps import add_evidence
from oracles import (
    OracleMap,
    cells_of,
    layer_of,
    oracle_entropy_color,
    oracle_export_entropy_layer,
    oracle_export_instance_map,
    oracle_export_semantic_map,
    oracle_geometric_entropy_map,
    oracle_semantic_entropy_map,
    oracle_write_ply,
    scalar_expected_entropy,
)
from snapshot_records import corrupted_snapshot
from test_fusion import clutter_map_without_refinement


def small_state():
    state = MapState(voxel_size=0.02)
    a = state.new_instance()
    b = state.new_instance()
    state.instances[a].category_evidence = {"chair": 2.0}
    state.instances[b].category_evidence = {"chair": 0.5, "table": 0.5}
    state.register_category("chair")
    state.register_category("table")
    add_evidence(state, (0, 0, 0), a, 4)
    add_evidence(state, (1, 0, 0), a, 1)
    add_evidence(state, (1, 0, 0), b, 1)
    add_evidence(state, (2, 0, 0), 0, 3)
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
        palette = np.array([[255, 0, 0], [0, 0, 255]], dtype=np.uint8)
        write_ply(tmp_path / "two.ply", np.zeros((2, 3), dtype=np.int64), 0.1, palette, np.array([0, 1]))
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


LABELS = ["chair", "table", "bed", "lamp", "sofa", "desk", "unknown", "ghost"]  # "ghost" is never registered
MASSES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.7]), st.floats(1e-3, 50.0))


@st.composite
def export_maps(draw):
    """Maps with negative and far keys, tied cells and cells of up to six
    owners with counts up to 300, cells without evidence, float category
    masses, instances without category evidence, an unknown instance with
    some, and a label the map never registers."""
    state = MapState(voxel_size=draw(st.sampled_from([0.02, 0.05, 0.3, 1.0])))
    for label in draw(st.lists(st.sampled_from(LABELS[:6]), unique=True)):
        state.register_category(label)
    for _ in range(draw(st.integers(0, 7))):
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = draw(
            st.dictionaries(st.sampled_from(LABELS), MASSES, max_size=4)
        )
    state.instances[0].category_evidence = draw(
        st.dictionaries(st.sampled_from(LABELS), MASSES, max_size=1)
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
        counts = st.integers(1, 4) | st.integers(1, 300)
        owners = draw(st.dictionaries(st.sampled_from(ids), counts, max_size=6))
        if not owners:
            state.integrate_occupancy(pack_keys(np.array([key])), hit=False)  # a cell without evidence
        for instance_id, count in owners.items():
            add_evidence(state, key, instance_id, count)
    state.frames_integrated = draw(st.integers(0, 50))
    return state


@st.composite
def label_permuted_maps(draw):
    """The category evidence of two to four instances, each holding three to
    five labels; the owners of up to ten cells, the first of them shared;
    and a permutation of each instance's labels."""
    evidence = draw(
        st.lists(st.dictionaries(st.sampled_from(LABELS), MASSES, min_size=3, max_size=5), min_size=2, max_size=4)
    )
    ids, counts = st.integers(0, len(evidence)), st.integers(1, 300)  # 0 is the unknown instance
    cells = [draw(st.dictionaries(ids, counts, min_size=2, max_size=4))]
    cells += draw(st.lists(st.dictionaries(ids, counts, min_size=1, max_size=4), max_size=9))
    orders = [draw(st.permutations(sorted(masses))) for masses in evidence]
    return evidence, cells, orders


def map_of(evidence, cells):
    """A map whose instances 1, 2, ... hold ``evidence`` and whose cell
    (i, 0, 0) holds the counts ``cells[i]``."""
    state = MapState(voxel_size=0.05)
    for label in LABELS[:6]:
        state.register_category(label)
    for masses in evidence:
        state.instances[state.new_instance()].category_evidence = masses
    for i, owners in enumerate(cells):
        for instance_id, count in owners.items():
            add_evidence(state, (i, 0, 0), instance_id, count)
    return state


def semantic_outputs(state):
    """The semantic layer's exact values, the bytes of its export and of the
    semantic map, and each prediction's exact semantic entropy."""
    layer = semantic_entropy_map(state)
    with tempfile.TemporaryDirectory() as tmp:
        export_entropy_layer(state, layer, Path(tmp, "sem_entropy.ply"))
        export_semantic_map(state, Path(tmp, "semantics.ply"))
        files = {path.name: path.read_bytes() for path in sorted(Path(tmp).iterdir())}
    predictions = [(p.instance_id, p.semantic_entropy.hex()) for p in predicted_instances(state)]
    return layer_items(layer), files, predictions


class TestLabelOrder:
    """Entropies subtract their terms in label order, so the order in which
    category evidence lists its labels changes no output."""

    @settings(max_examples=100, deadline=None)
    @given(label_permuted_maps())
    # subtracted in the order each dict lists them, these two orders differ by an ulp
    @example(([{"chair": 0.5, "table": 1.0, "bed": 0.9}], [{0: 2, 1: 3}, {1: 1}], [["bed", "table", "chair"]]))
    def test_outputs_do_not_depend_on_the_order_of_labels(self, drawn):
        evidence, cells, orders = drawn
        permuted = [{label: masses[label] for label in order} for masses, order in zip(evidence, orders)]
        assert semantic_outputs(map_of(permuted, cells)) == semantic_outputs(map_of(evidence, cells))


def layer_items(layer):
    """A layer's values in order, with each float's exact bits."""
    return layer.kind, layer.generated_at_frame, [(k, v.hex()) for k, v in layer.values.items()]


def assert_exports_match_oracle(state, layers=None):
    """Layers equal value for value in key order, unless ``layers`` are
    given; all six export files equal byte for byte."""
    model = OracleMap.from_state(state)
    if layers is None:
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


ANY_KEY = st.one_of(
    st.integers(-2, 2), st.integers(-(2**20), 2**20 - 1), st.sampled_from([-(2**20), 2**20 - 1])
)
FEW_COLORS = st.sampled_from([(0, 0, 255), (255, 0, 0), (64, 255, 64)])


@st.composite
def vertices(draw):
    """Keys anywhere in the packable range on every axis, unsorted and
    possibly repeated, a palette whose colors often repeat, and a shade
    into it for each key."""
    keys = draw(st.lists(st.tuples(ANY_KEY, ANY_KEY, ANY_KEY), max_size=30))
    colors = FEW_COLORS | st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    palette = draw(st.lists(colors, min_size=1, max_size=6))
    shade = draw(st.lists(st.integers(0, len(palette) - 1), min_size=len(keys), max_size=len(keys)))
    return keys, draw(st.sampled_from([0.02, 0.05, 0.3, 1.0, 0.123456789])), palette, shade


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

    def test_mixed_probability_108_of_187(self):
        """A mixed probability whose np.log is one ulp from math.log on some
        machines (AVX-512): the layer takes math.log, as shannon_entropy does."""
        state = MapState(voxel_size=0.1)
        chair = state.new_instance()
        state.register_category("chair")
        state.instances[chair].category_evidence = {"chair": 0.9}
        add_evidence(state, (0, 0, 0), UNKNOWN_INSTANCE_ID, 79)
        add_evidence(state, (0, 0, 0), chair, 108)
        unknown, share = 79 / 187, 108 / 187
        assert share == 0.5775401069518716
        (value,) = semantic_entropy_map(state).values.values()
        assert value.hex() == (0.0 - unknown * math.log(unknown) - share * math.log(share)).hex()
        assert_exports_match_oracle(state)

    def test_three_owners_sum_with_fsum(self):
        """Counts (1, 5, 12), whose terms fsum to another float than a
        left-to-right sum does."""
        state = MapState(voxel_size=0.1)
        for count in (1, 5, 12):
            add_evidence(state, (0, 0, 0), state.new_instance(), count)
        terms = [(count / 18) * float(evidence._psi(count)) for count in (1, 5, 12)]
        left_to_right = float(evidence._psi(18)) - (terms[0] + terms[1] + terms[2])
        (value,) = geometric_entropy_map(state).values.values()
        assert value == scalar_expected_entropy({1: 1, 2: 5, 3: 12}) != left_to_right
        assert_exports_match_oracle(state)

    @pytest.mark.parametrize(
        "evidence, error, message",
        [({"chair": 0.0}, NoEvidenceError, "no evidence"), ({"chair": 2.0, "table": -1.0}, ValueError, "'table'")],
        ids=["zero-sum", "negative"],
    )
    @pytest.mark.parametrize("owns_cells", [True, False], ids=["owning-cells", "owning-none"])
    def test_instance_with_bad_evidence_raises(self, tmp_path, evidence, error, message, owns_cells):
        """Category evidence that sums to 0 or holds a negative mass makes
        both semantic readers raise, whether or not a cell reads it, and the
        export leaves no file."""
        state = small_state()
        bad = state.new_instance()
        state.instances[bad].category_evidence = evidence
        if owns_cells:
            add_evidence(state, (1, 0, 0), bad, 2)  # shared with both other instances
            add_evidence(state, (3, 0, 0), bad, 1)  # its own
        with pytest.raises(error, match=message):
            semantic_entropy_map(state)
        with pytest.raises(error, match=message):
            export_semantic_map(state, tmp_path / "semantics.ply")
        if owns_cells:  # the per-cell oracles read it too
            model = OracleMap.from_state(state)
            with pytest.raises(error, match=message):
                oracle_semantic_entropy_map(model)
            with pytest.raises(error, match=message):
                oracle_export_semantic_map(model, tmp_path / "old.ply")
        assert list(tmp_path.iterdir()) == []

    def test_signed_zeros_and_non_finite_values(self, tmp_path):
        values = {
            (0, 0, 0): 0.0,
            (0, 0, 1): -0.0,
            (0, 1, 0): 1e-7,
            (0, 1, 1): -1e-7,
            (1, 0, 0): math.nan,
            (1, 0, 1): math.inf,
            (2, 0, 0): -math.inf,
        }
        layer = layer_of("geometric", values)
        export_entropy_layer(MapState(voxel_size=0.1), layer, tmp_path / "new_layer.ply")
        oracle_export_entropy_layer(MapState(voxel_size=0.1), layer, tmp_path / "old_layer.ply")
        for suffix in ("ply", "ply.json"):
            assert (tmp_path / f"new_layer.{suffix}").read_bytes() == (
                tmp_path / f"old_layer.{suffix}"
            ).read_bytes()

    def test_cells_with_zero_evidence(self, tmp_path):
        """Every count in the map is at least 1, so no reader needs a case
        for a zero count: a snapshot holding one is rejected on load."""
        path = corrupted_snapshot(tmp_path / "map.vxl", small_state(), lambda r: r["footprint counts"].fill(0))
        with pytest.raises(SnapshotError, match="below 1"):
            MapState.load_snapshot(path)

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
        layer = layer_of(kind, values, generated_at_frame=7)
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
        keys = np.stack([np.arange(len(values)), -np.arange(len(values)), np.zeros(len(values), int)], axis=1)
        colors = np.array([oracle_entropy_color(v, h_max) for v in values], dtype=np.uint8).reshape(-1, 3)
        with tempfile.TemporaryDirectory() as tmp:
            write_ply(Path(tmp, "new.ply"), keys, 0.05, entropy_colors(values, h_max), np.arange(len(values)))
            oracle_write_ply(Path(tmp, "old.ply"), (keys + 0.5) * 0.05, colors)
            assert Path(tmp, "new.ply").read_bytes() == Path(tmp, "old.ply").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(vertices())
    @example(([], 0.05, [(1, 2, 3)], []))
    @example(([(-(2**20), 2**20 - 1, 0)] * 2, 0.3, [(9, 9, 9), (9, 9, 9)], [1, 0]))
    def test_write_ply_against_oracle(self, drawn):
        """Vertex r is the center of keys[r] colored palette[shade[r]],
        for unsorted and repeated keys and palettes with repeated colors."""
        keys, voxel_size, palette, shade = drawn
        keys = np.array(keys, dtype=np.int64).reshape(-1, 3)
        palette = np.array(palette, dtype=np.uint8).reshape(-1, 3)
        shade = np.array(shade, dtype=np.int64)
        with tempfile.TemporaryDirectory() as tmp:
            write_ply(Path(tmp, "new.ply"), keys, voxel_size, palette, shade)
            oracle_write_ply(Path(tmp, "old.ply"), (keys.astype(float) + 0.5) * voxel_size, palette[shade])
            assert Path(tmp, "new.ply").read_bytes() == Path(tmp, "old.ply").read_bytes()


def owners_state(cells: int, without_evidence: int = 0) -> MapState:
    """``cells`` cells of 1 to 6 owners each, among them ids 2 and 10 to 13
    (whose string order differs from their numeric order) and the unknown
    instance, then ``without_evidence`` cells without evidence."""
    state = MapState(voxel_size=0.05)
    state.register_category("chair")
    for instance_id in (state.new_instance() for _ in range(13)):
        state.instances[instance_id].category_evidence = {"chair": 1.0, "unknown": instance_id / 10}
    owners = [10, 2, UNKNOWN_INSTANCE_ID, 13, 11, 12]
    for row in range(cells):
        for position in range(row % 6 + 1):
            add_evidence(state, (row - 3, -row, 2 * row), owners[position], 1 + (7 * row + position) % 11)
    for row in range(without_evidence):
        state.integrate_occupancy(pack_keys(np.array([[row, 1, -5]])), hit=row % 2 == 0)
    return state


def test_layers_own_their_arrays(tmp_path):
    """Evidence integrated after the layers are computed, into new and
    existing cells, leaves their exports as they were."""
    state = owners_state(12)
    layers = [geometric_entropy_map(state), semantic_entropy_map(state)]

    def exported(directory):
        directory.mkdir()
        for layer in layers:
            export_entropy_layer(state, layer, directory / f"{layer.kind}.ply")
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    before = exported(tmp_path / "before")
    instances = len(state.instances)
    for row in range(12):
        add_evidence(state, (row - 3, -row, 2 * row), 1 + row % 13, 5)  # an existing cell
        add_evidence(state, (row, 7, -7), 1 + row % 13, 2)  # a new cell, among the old ones
    state.integrate_occupancy(pack_keys(np.array([[0, 0, 0], [-3, 0, 0]])), hit=True)
    assert len(state.instances) == instances  # the colormaps' h_max stay
    assert len(geometric_entropy_map(state).values) == 24
    assert exported(tmp_path / "after") == before


class TestTokenRows:
    """Every writer's rows, assembled from token tables, against the oracle writers."""

    @pytest.mark.parametrize(
        "state",
        [owners_state(0, 3), owners_state(2, 3), owners_state(12)],
        ids=["no-evidence", "some-evidence", "owners-1-to-6"],
    )
    def test_maps(self, state):
        assert_exports_match_oracle(state)

    def test_signed_zeros_and_non_finite_values(self):
        state = owners_state(7)
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-7, -2.5]
        state.cells.log_odds[:] = special
        keys = [tuple(key) for key in unpack_key_array(state.cells.keys).tolist()]
        layers = [
            layer_of(kind, dict(zip(keys, values)), generated_at_frame=3)
            for kind, values in (("geometric", special), ("semantic", special[::-1]))
        ]
        assert_exports_match_oracle(state, layers)

    @pytest.mark.parametrize("rows", [7, 8, 9], ids=["one-before", "on", "one-after"])
    def test_rows_around_a_chunk_boundary(self, rows, monkeypatch):
        """With chunks of 4 rows, the last row falls one before, on or one
        after the second chunk's end: the ", " and "," separators between
        chunks and an end of a chunk without a next one."""
        monkeypatch.setattr(export, "_CHUNK_ROWS", 4)
        assert_exports_match_oracle(owners_state(rows))

    @pytest.mark.parametrize("token", ["a\0b", "ab\0", "\0", "caf\xe9", "\u2603"])
    def test_token_table_rejects_what_it_would_drop_or_mangle(self, token):
        """Padding is dropped as NUL bytes, so a NUL or non-ASCII token is an error."""
        with pytest.raises(ValueError, match="not ASCII text without NUL bytes"):
            export._token_table(["ok", token])

    @pytest.mark.parametrize(
        "keys, palette, shade, message",
        [
            pytest.param(
                np.zeros((10, 3), int), np.zeros((2, 3)), np.zeros(5, int), r"10 keys but shades of shape \(5,\)",
                id="fewer-shades",
            ),
            pytest.param(
                np.zeros((3, 3), int), np.zeros((2, 3)), np.array([0, 2, 1]), "shades from 0 to 2 leave a palette of 2",
                id="shade-past-palette",
            ),
            pytest.param(
                np.zeros((3, 3), int), np.zeros((2, 3)), np.array([0, -1, 1]), "shades from -1 to 1 leave a palette",
                id="negative-shade",
            ),
            pytest.param(
                np.zeros((0, 3), int), np.zeros((2, 3)), np.zeros(0), r"shades of shape \(0,\) and dtype float64",
                id="float-shades",
            ),
            pytest.param(
                np.zeros((3, 2), int), np.zeros((2, 3)), np.zeros(3, int), r"keys of shape \(3, 2\) and dtype int64",
                id="two-axes",
            ),
            pytest.param(
                np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3, int), r"keys of shape \(3, 3\) and dtype float64",
                id="float-keys",
            ),
            pytest.param(
                np.full((3, 3), 2**20), np.zeros((2, 3)), np.zeros(3, int), "keys from 1048576 to 1048576 leave",
                id="far-key",
            ),
            pytest.param(
                np.zeros((3, 3), int), np.zeros((2, 4)), np.zeros(3, int), r"palette of shape \(2, 4\) is not",
                id="four-channels",
            ),
        ],
    )
    def test_write_ply_rejects_arguments_that_do_not_fit(self, tmp_path, keys, palette, shade, message):
        """A ValueError naming the path and sizes, before any file is opened."""
        path = tmp_path / "cloud.ply"
        path.write_text("previous")
        with pytest.raises(ValueError, match=message) as raised:
            write_ply(path, keys, 0.05, palette, shade)
        assert str(raised.value).startswith(f"{path}: ")
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["cloud.ply"]


def interrupted_after_first_chunk(row_chunks):
    """``row_chunks`` that raises KeyboardInterrupt once its first chunk is written."""

    def interrupted(*args, **kwargs):
        chunks = row_chunks(*args, **kwargs)
        yield next(chunks)
        raise KeyboardInterrupt

    return interrupted


def test_interrupted_ply_write_keeps_previous_files(tmp_path, monkeypatch):
    """An export stopped after its first chunk of rows leaves the earlier
    PLY and sidecar as they were and no temporary file behind."""
    state = small_state()
    layer = geometric_entropy_map(state)
    export_entropy_layer(state, layer, tmp_path / "geom.ply")
    before = {name: (tmp_path / name).read_bytes() for name in ("geom.ply", "geom.ply.json")}
    monkeypatch.setattr(export, "_CHUNK_ROWS", 1)
    monkeypatch.setattr(export, "_row_chunks", interrupted_after_first_chunk(export._row_chunks))
    shifted = {key: value + 0.5 for key, value in layer.values.items()}
    layer = layer_of(layer.kind, shifted, layer.generated_at_frame)
    with pytest.raises(KeyboardInterrupt):
        export_entropy_layer(state, layer, tmp_path / "geom.ply")
    assert sorted(os.listdir(tmp_path)) == sorted(before)
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
