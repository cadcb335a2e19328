import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.evidence import NoEvidenceError, expected_entropy, probabilities, top_category

from oracles import oracle_expected_entropy, scalar_expected_entropy, validate_distribution


def entropy(*masses: float) -> float:
    """The kernel's value for one group of masses."""
    (value,) = expected_entropy(masses, [len(masses)])
    return value


class TestProbabilities:
    def test_two_hypotheses(self):
        dist = probabilities({"a": 3.0, "b": 1.0})
        assert dist == {"a": 0.75, "b": 0.25}

    def test_single_hypothesis(self):
        assert probabilities({"a": 5.0}) == {"a": 1.0}

    def test_three_hypotheses(self):
        dist = probabilities({"a": 2.0, "b": 2.0, "c": 4.0})
        assert dist == {"a": 0.25, "b": 0.25, "c": 0.5}

    def test_empty_is_error(self):
        with pytest.raises(NoEvidenceError, match="no evidence"):
            probabilities({})

    def test_negative_mass_is_error_naming_its_key(self):
        with pytest.raises(ValueError, match="negative evidence mass -1.0 for 'b'"):
            probabilities({"a": 2.0, "b": -1.0})

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_sums_to_one(self, masses):
        dist = probabilities(masses)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        validate_distribution(dist)


class TestExpectedEntropy:
    def test_uniform_pair_is_exactly_one(self):
        assert entropy(1.0, 1.0) == 1.0

    def test_concentrated_pair(self):
        # frozen from the series oracle: psi(101) - (100 psi(100) + psi(1)) / 101
        assert entropy(100.0, 1.0) == pytest.approx(0.0612611635409861, abs=1e-12)

    def test_single_support_is_exactly_zero(self):
        assert entropy(7.0) == 0.0

    def test_empty_group_is_error(self):
        with pytest.raises(NoEvidenceError, match="no evidence"):
            expected_entropy([1.0, 1.0], [2, 0])

    def test_no_groups_give_no_values(self):
        values = expected_entropy([], [])
        assert values.dtype == np.float64 and values.shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_non_positive_or_non_finite_mass_is_error(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            expected_entropy([2.0, bad, 3.0], [1, 2])

    def test_order_invariance_within_a_group(self):
        values = expected_entropy([3.0, 9.0, 0.5, 0.5, 9.0, 3.0, 9.0, 0.5, 3.0], [3, 3, 3])
        assert values[0] == values[1] == values[2]

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_limit_is_log_m(self, m):
        assert abs(entropy(*[10_000.0] * m) - math.log(m)) < 0.01

    def test_strictly_decreasing_with_concentration(self):
        values = expected_entropy([mass for n in range(1, 101) for mass in (float(n), 1.0)], [2] * 100)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(7)
        masses = np.concatenate(
            [rng.uniform(1e-3, 1.0, 100), rng.uniform(0.1, 100.0, 200), 10 ** rng.uniform(0, 6, 100)]
        )
        rng.shuffle(masses)
        sizes = [1, 2, 3, 4] * 40
        groups = np.split(masses, np.cumsum(sizes)[:-1])
        for value, group in zip(expected_entropy(masses, sizes), groups):
            assert value == pytest.approx(oracle_expected_entropy(group.tolist()), abs=1e-11)

    @given(st.data())
    @settings(max_examples=200)
    def test_bit_identical_to_the_scalar_oracle_in_any_order(self, data):
        """Groups of one, two and three or more masses, each of integer point
        counts or of float confidence sums, every group checked by ``.hex()``
        against the scalar oracle, and again with its masses reordered."""
        counts = st.integers(min_value=1, max_value=10**6)
        confidences = st.floats(min_value=1e-3, max_value=1e4)
        groups = data.draw(
            st.lists(
                st.one_of(
                    st.lists(counts, min_size=1, max_size=6),
                    st.lists(confidences, min_size=1, max_size=6),
                ),
                min_size=1,
                max_size=8,
            )
        )
        reordered = [data.draw(st.permutations(group)) for group in groups]
        expected = [scalar_expected_entropy(dict(enumerate(group))).hex() for group in groups]
        for layout in (groups, reordered):
            values = expected_entropy([mass for group in layout for mass in group], list(map(len, layout)))
            assert [value.hex() for value in values.tolist()] == expected


class TestDistribution:
    def test_validate_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            validate_distribution({"a": 0.7})

    def test_top_category_tie_breaks_by_label(self):
        assert top_category({"b": 0.5, "a": 0.5}) == "a"
