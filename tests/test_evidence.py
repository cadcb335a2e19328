import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.evidence import (
    NoEvidenceError,
    digamma,
    expected_entropy,
    probabilities,
    shannon_entropy,
    top_category,
)

from oracles import oracle_digamma, validate_distribution

EULER_GAMMA = 0.5772156649015328606


class TestDigamma:
    def test_known_identities(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate(
            [rng.uniform(1e-3, 1.0, 100), rng.uniform(0.1, 100.0, 200), 10 ** rng.uniform(0, 6, 100)]
        )
        for x in xs:
            assert digamma(float(x)) == pytest.approx(oracle_digamma(float(x)), abs=1e-11)

    def test_recurrence_property(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.1, 100.0, 1000):
            x = float(x)
            assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


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
        assert expected_entropy({"a": 1.0, "b": 1.0}) == 1.0

    def test_concentrated_pair(self):
        # frozen from the series oracle: psi(101) - (100 psi(100) + psi(1)) / 101
        assert expected_entropy({"a": 100.0, "b": 1.0}) == pytest.approx(
            0.0612611635409861, abs=1e-12
        )

    def test_single_support_is_exactly_zero(self):
        assert expected_entropy({"a": 7.0}) == 0.0

    def test_empty_is_error(self):
        with pytest.raises(NoEvidenceError, match="no evidence"):
            expected_entropy({})

    def test_relabeling_and_order_invariance(self):
        reference = expected_entropy({"x": 3.0, "y": 9.0, "z": 0.5})
        assert expected_entropy({"c": 0.5, "a": 9.0, "b": 3.0}) == reference
        assert expected_entropy({1: 9.0, 2: 0.5, 3: 3.0}) == reference

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_limit_is_log_m(self, m):
        masses = {i: 10_000.0 for i in range(m)}
        assert abs(expected_entropy(masses) - math.log(m)) < 0.01

    def test_strictly_decreasing_with_concentration(self):
        values = [expected_entropy({"a": float(n), "b": 1.0}) for n in range(1, 101)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestShannonEntropy:
    def test_uniform_two(self):
        assert shannon_entropy({"a": 0.5, "b": 0.5}) == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate(self):
        assert shannon_entropy({"a": 1.0}) == 0.0

    def test_quarter_three_quarter(self):
        assert shannon_entropy({"a": 0.25, "b": 0.75}) == pytest.approx(
            0.5623351446188083, abs=1e-10
        )

    def test_zero_entries_contribute_nothing(self):
        assert shannon_entropy({"a": 1.0, "b": 0.0}) == 0.0

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_bounds(self, masses):
        dist = probabilities(masses)
        entropy = shannon_entropy(dist)
        assert 0.0 <= entropy <= math.log(len(dist)) + 1e-12


class TestDistribution:
    def test_validate_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            validate_distribution({"a": 0.7})

    def test_top_category_tie_breaks_by_label(self):
        assert top_category({"b": 0.5, "a": 0.5}) == "a"
