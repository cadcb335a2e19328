import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland import evidence
from voxeland.evidence import expected_entropy, probabilities, top_category
from voxeland.uncertainty import (
    CategoryMixtures,
    LayerValues,
    declare_categories,
    geometric_entropy_map,
    semantic_entropy_map,
)
from voxeland.voxelmap import UNKNOWN_INSTANCE_ID, MapState, pack_keys

from maps import add_evidence
from oracles import (
    cells_of,
    layer_dict,
    oracle_expected_entropy,
    oracle_voxel_category_distribution,
    scalar_expected_entropy,
    scalar_shannon_entropy,
    unpack_keys,
)


def make_state(instance_betas, cell_counts):
    """State with given per-instance category evidence and per-cell counts."""
    state = MapState(voxel_size=0.02)
    id_map = {}
    for name, beta in instance_betas.items():
        instance_id = state.new_instance()
        id_map[name] = instance_id
        state.instances[instance_id].category_evidence = dict(beta)
        for label in beta:
            state.register_category(label)
    for key, counts in cell_counts.items():
        for name, count in counts.items():
            instance_id = UNKNOWN_INSTANCE_ID if name == "unknown" else id_map[name]
            add_evidence(state, key, instance_id, count)
    return state, id_map


def geometric_entropy(instance_counts: dict[int, int]) -> float:
    """The geometric layer's value on a one-cell map whose cell holds ``instance_counts``."""
    state = MapState(voxel_size=0.02)
    while state._next_instance_id <= max(instance_counts):
        state.new_instance()
    for instance_id, count in instance_counts.items():
        add_evidence(state, (0, 0, 0), instance_id, count)
    (value,) = geometric_entropy_map(state).values.values()
    return value


class TestGeometricEntropy:
    def test_uniform_pair(self):
        assert geometric_entropy({1: 1, 2: 1}) == 1.0

    def test_single_instance(self):
        assert geometric_entropy({1: 40}) == 0.0

    def test_concentrated(self):
        assert geometric_entropy({1: 100, 2: 1}) == pytest.approx(0.0612611635409861, abs=1e-12)


def declared_entropies(*evidence: dict) -> list[float | None]:
    """The entropy of each decision on a map of one instance per evidence mapping."""
    state = MapState(voxel_size=0.02)
    for beta in evidence:
        state.instances[state.new_instance()].category_evidence = dict(beta)
    return [decision.entropy for decision in declare_categories(state)]


class TestSemanticEntropy:
    def test_single_category(self):
        assert declared_entropies({"chair": 0.9}) == [0.0]

    def test_value_independent_of_labels_and_scale_split(self):
        for scale in (1.0, 2.5, 10.0):
            beta = {"bed": 0.48 * scale, "couch": 0.46 * scale, "other": 0.06 * scale}
            renamed = {"x": 0.48 * scale, "y": 0.46 * scale, "z": 0.06 * scale}
            a, b = declared_entropies(beta, renamed)
            assert a == b

    def test_uniform_pair(self):
        assert declared_entropies({"a": 1.0, "b": 1.0}) == [1.0]

    def test_unknown_not_classifiable(self):
        """The unknown instance gets no decision, even with category evidence."""
        state = MapState(voxel_size=0.02)
        state.instances[UNKNOWN_INSTANCE_ID].category_evidence = {"chair": 1.0}
        assert declare_categories(state) == []

    def test_matches_the_scalar_oracle_bit_for_bit(self):
        rng = np.random.default_rng(5)
        evidence = [
            {label: float(rng.uniform(0.05, 3.0)) for label in rng.choice(list("abcde"), size=n, replace=False)}
            for n in rng.integers(0, 6, 60)
        ]
        expected = [scalar_expected_entropy(beta) if beta else None for beta in evidence]
        assert any(len(beta) > 2 for beta in evidence) and None in expected
        assert declared_entropies(*evidence) == expected

    @pytest.mark.parametrize("beta", [{"chair": 2.0, "table": 0.0}, {"chair": 2.0, "table": -1.0}])
    def test_non_positive_mass_raises_before_any_record_changes(self, beta):
        state = MapState(voxel_size=0.02)
        good, bad = state.new_instance(), state.new_instance()
        state.instances[good].category_evidence = {"chair": 5.0}
        state.instances[bad].category_evidence = beta
        with pytest.raises(ValueError, match="positive and finite"):
            declare_categories(state)
        assert state.instances[good].final_category is None and not state.instances[good].flagged


def shannon(probs: dict[str, float]) -> float:
    """:meth:`CategoryMixtures.entropies` of one row holding ``probs``, in label order."""
    labels = sorted(probs)
    row = np.array([[probs[label] for label in labels]])
    (value,) = CategoryMixtures(labels, row, np.zeros(1, dtype=np.int64)).entropies()
    return value


class TestMixtureEntropies:
    def test_uniform_two(self):
        assert shannon({"a": 0.5, "b": 0.5}) == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate(self):
        assert shannon({"a": 1.0}) == 0.0

    def test_quarter_three_quarter(self):
        assert shannon({"a": 0.25, "b": 0.75}) == pytest.approx(0.5623351446188083, abs=1e-10)

    def test_zero_entries_contribute_nothing(self):
        assert shannon({"a": 1.0, "b": 0.0}) == 0.0

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_bounds_and_the_scalar_oracle(self, masses):
        dist = probabilities(masses)
        value = shannon(dist)
        assert 0.0 <= value <= math.log(len(dist)) + 1e-12
        assert value.hex() == scalar_shannon_entropy(dist).hex()


class TestVoxelCategoryDistribution:
    def test_single_instance_single_class(self):
        state, ids = make_state({"k1": {"chair": 1.0}}, {(0, 0, 0): {"k1": 4}})
        dist = oracle_voxel_category_distribution(cells_of(state)[(0, 0, 0)].instance_counts, state)
        assert dist == {"chair": 1.0}

    def test_worked_mixture(self):
        # instance weights 0.75 / 0.25(unknown); k1 categories 1.7 / 0.6
        state, ids = make_state(
            {"k1": {"chair": 1.7, "table": 0.6}},
            {(0, 0, 0): {"k1": 3, "unknown": 1}},
        )
        dist = oracle_voxel_category_distribution(cells_of(state)[(0, 0, 0)].instance_counts, state)
        assert dist["chair"] == pytest.approx(0.75 * 1.7 / 2.3, abs=1e-9)
        assert dist["table"] == pytest.approx(0.75 * 0.6 / 2.3, abs=1e-9)
        assert dist["unknown"] == pytest.approx(0.25, abs=1e-9)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        # rounded anchors: 0.554 / 0.196 / 0.25
        assert dist["chair"] == pytest.approx(0.554, abs=5e-4)
        assert dist["table"] == pytest.approx(0.196, abs=5e-4)

    def test_unknown_only_cell(self):
        state, _ = make_state({}, {(0, 0, 0): {"unknown": 5}})
        dist = oracle_voxel_category_distribution(cells_of(state)[(0, 0, 0)].instance_counts, state)
        assert dist == {"unknown": 1.0}

    def test_evidence_free_instance_routes_to_unknown(self):
        state = MapState(voxel_size=0.02)
        bare = state.new_instance()
        add_evidence(state, (0, 0, 0), bare, 2)
        dist = oracle_voxel_category_distribution(cells_of(state)[(0, 0, 0)].instance_counts, state)
        assert dist == {"unknown": 1.0}

    def test_sums_to_one_on_random_maps(self):
        import numpy as np

        rng = np.random.default_rng(21)
        labels = ["a", "b", "c", "d"]
        for _ in range(200):
            n_instances = int(rng.integers(1, 4))
            betas = {
                f"i{idx}": {
                    label: float(rng.uniform(0.05, 3.0))
                    for label in rng.choice(labels, size=rng.integers(1, 4), replace=False)
                }
                for idx in range(n_instances)
            }
            counts = {
                name: int(rng.integers(1, 20)) for name in list(betas) + ["unknown"]
            }
            state, _ = make_state(betas, {(0, 0, 0): counts})
            dist = oracle_voxel_category_distribution(cells_of(state)[(0, 0, 0)].instance_counts, state)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


class TestEntropyMaps:
    def test_semantic_layer_values(self):
        state, ids = make_state(
            {"k1": {"chair": 1.0}, "k2": {"chair": 0.5, "table": 0.5}},
            {(0, 0, 0): {"k1": 4}, (1, 0, 0): {"k2": 2}},
        )
        layer = semantic_entropy_map(state)
        assert layer.kind == "semantic"
        values = layer_dict(layer)
        assert values[(0, 0, 0)] == 0.0
        assert values[(1, 0, 0)] == pytest.approx(math.log(2), abs=1e-12)

    def test_worked_example_shannon_value(self):
        # frozen by direct evaluation of -sum(p ln p) over the mixed
        # distribution {chair: 1.275/2.3, table: 0.45/2.3, unknown: 0.25}
        state, ids = make_state(
            {"k1": {"chair": 1.7, "table": 0.6}},
            {(0, 0, 0): {"k1": 3, "unknown": 1}},
        )
        (value,) = semantic_entropy_map(state).values.values()
        assert value == pytest.approx(0.9928085131638009, abs=1e-9)

    def test_geometric_layer_covers_evidence_voxels_only(self):
        state, ids = make_state({"k1": {"chair": 1.0}}, {(0, 0, 0): {"k1": 1}})
        state.integrate_occupancy(pack_keys(np.array([[5, 5, 5]])), hit=True)  # no evidence
        assert len(state.cells) == 2
        layer = geometric_entropy_map(state)
        assert unpack_keys(layer.values.packed_keys) == [(0, 0, 0)]
        assert layer.generated_at_frame == state.frames_integrated

    def test_digamma_reads_only_the_contested_cells(self, monkeypatch):
        """On a map of 300 single-owner cells and 3 contested ones, digamma
        sees the contested cells' 7 counts and their 3 totals, nothing else;
        every single-owner cell is exactly 0.0."""
        state = MapState(voxel_size=0.02)
        a, b, c = (state.new_instance() for _ in range(3))
        for i, owner in enumerate((a, b, c, UNKNOWN_INSTANCE_ID)):
            add_evidence(state, [(x, i, 0) for x in range(75)], owner, range(1, 76))
        contested = {(0, 0, 9): {a: 2, b: 3}, (5, 5, 5): {a: 1, b: 1, c: 4}, (9, 9, 9): {UNKNOWN_INSTANCE_ID: 7, c: 1}}
        for key, counts in contested.items():
            for instance_id, count in counts.items():
                add_evidence(state, key, instance_id, count)
        digamma, arguments = evidence._psi, []
        monkeypatch.setattr(evidence, "_psi", lambda x: arguments.append(sorted(np.ravel(x).tolist())) or digamma(x))
        layer = geometric_entropy_map(state)
        assert sorted(arguments) == [[1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 7.0], [5.0, 6.0, 8.0]]
        values = layer_dict(layer)
        assert len(values) == 303
        for key, value in values.items():
            assert value.hex() == (scalar_expected_entropy(contested[key]) if key in contested else 0.0).hex()

    def test_repeated_single_instance_integration_never_raises_entropy(self):
        assert not expected_entropy(np.arange(1.0, 101.0), [1] * 100).any()
        mixed = expected_entropy([mass for n in range(1, 101) for mass in (float(n), 1.0)], [2] * 100)
        assert all(b <= a for a, b in zip(mixed, mixed[1:]))


KEYS = [(-3, 0, 7), (0, 0, 0), (0, 0, 1), (2**20 - 1, -(2**20), 5)]


class TestLayerValues:
    def test_arrays_and_values(self):
        values = LayerValues(pack_keys(np.array(KEYS)), [0.5, -0.0, math.inf, 2.0])
        assert values.packed_keys.dtype == np.int64 and unpack_keys(values.packed_keys) == KEYS
        assert values.entropies.dtype == np.float64
        assert values.values() == [0.5, -0.0, math.inf, 2.0]
        assert all(type(value) is float for value in values.values())
        assert str(values.values()[1]) == "-0.0"
        assert LayerValues(np.zeros(0, dtype=np.int64), np.zeros(0)).values() == []

    @pytest.mark.parametrize(
        "keys, entropies",
        [
            (pack_keys(np.array(KEYS))[::-1], [0.0] * 4),
            (pack_keys(np.array([KEYS[0], KEYS[1], KEYS[1]])), [0.0] * 3),
            (pack_keys(np.array(KEYS)), [0.0] * 3),
            (pack_keys(np.array(KEYS)), [0.0] * 5),
            (pack_keys(np.array(KEYS)).astype(float), [0.0] * 4),
            (pack_keys(np.array(KEYS)).reshape(2, 2), np.zeros((2, 2))),
            (pack_keys(np.array(KEYS)).astype(np.int32), [0.0] * 4),
            (pack_keys(np.array(KEYS)), np.zeros((4, 1))),
        ],
        ids=["unsorted", "duplicate", "fewer-values", "more-values", "float-keys", "two-dimensional", "int32-keys",
             "two-dimensional-values"],
    )
    def test_rejects_keys_not_strictly_increasing_int64_or_unaligned(self, keys, entropies):
        with pytest.raises(ValueError):
            LayerValues(keys, entropies)

    def test_holds_read_only_copies(self):
        keys, entropies = pack_keys(np.array(KEYS)), np.array([0.5, 1.0, 1.5, 2.0])
        values = LayerValues(keys, entropies)
        keys[0], entropies[0] = -1, 9.0
        assert unpack_keys(values.packed_keys) == KEYS and values.values() == [0.5, 1.0, 1.5, 2.0]
        with pytest.raises(ValueError):
            values.entropies[0] = 9.0
        with pytest.raises(ValueError):
            values.packed_keys[0] = -1


class TestDeclareCategories:
    def test_unambiguous_instance_declared(self):
        state, ids = make_state({"k1": {"chair": 5.0}}, {(0, 0, 0): {"k1": 3}})
        decisions = declare_categories(state, entropy_threshold=0.5)
        decision = decisions[0]
        assert decision.final_category == "chair"
        assert not decision.flagged
        assert state.instances[ids["k1"]].final_category == "chair"

    def test_split_evidence_flagged(self):
        # expected entropy of {4.8, 4.6} is ~0.749 nats, above the 0.5 default
        state, ids = make_state({"k1": {"bed": 4.8, "couch": 4.6}}, {(0, 0, 0): {"k1": 3}})
        assert oracle_expected_entropy([4.8, 4.6]) >= 0.5
        decisions = declare_categories(state, entropy_threshold=0.5)
        assert decisions[0].flagged
        assert state.instances[ids["k1"]].final_category is None
        assert state.instances[ids["k1"]].flagged

    def test_never_classified_instance_flagged(self):
        state = MapState(voxel_size=0.02)
        bare = state.new_instance()
        add_evidence(state, (0, 0, 0), bare, 1)
        decisions = declare_categories(state)
        assert decisions[0].flagged and decisions[0].entropy is None

    def test_unknown_never_declared(self):
        state, _ = make_state({}, {(0, 0, 0): {"unknown": 5}})
        assert declare_categories(state) == []
        assert state.instances[UNKNOWN_INSTANCE_ID].final_category is None

    def test_argmax_invariant_under_beta_scaling(self):
        for scale in (0.5, 1.0, 7.0):
            beta = {"bed": 0.48 * scale, "couch": 0.46 * scale, "chair": 0.06 * scale}
            dist = probabilities(beta)
            assert top_category(dist) == "bed"
            assert dist["bed"] == pytest.approx(0.48, abs=1e-12)

    def test_entropy_threshold_boundary_is_flagging(self):
        # entropy exactly at the threshold flags (declaration needs < threshold)
        state, ids = make_state({"k1": {"a": 1.0, "b": 1.0}}, {(0, 0, 0): {"k1": 1}})
        decisions = declare_categories(state, entropy_threshold=1.0)
        assert decisions[0].flagged
