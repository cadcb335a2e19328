"""Sparse evidence and the expected entropy computed from it.

Evidence accumulates as a sparse map from hypothesis id to non-negative mass
(integer point counts for instance evidence, confidence sums for category
evidence).  Hypotheses never observed are simply absent, and
:func:`probabilities` refuses a negative mass.  :func:`expected_entropy` is
the one expected-entropy pass, over groups of masses laid end to end: the
contested cells of the geometric layer, or the category evidence of every
instance at once.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

import numpy as np
from scipy.special import digamma as _psi


class NoEvidenceError(ValueError):
    """Raised when a probability or entropy is requested from empty evidence."""


def probabilities(masses: Mapping[Hashable, float]) -> dict[Hashable, float]:
    """Normalize evidence masses into a categorical distribution, keyed as ``masses``.

    Raises ValueError, naming its key, for a negative mass, and
    NoEvidenceError when the masses do not sum above zero.
    """
    for key, mass in masses.items():
        if mass < 0.0:
            raise ValueError(f"negative evidence mass {mass!r} for {key!r}")
    total = math.fsum(masses.values())
    if not masses or total <= 0.0:
        raise NoEvidenceError("no evidence")
    return {key: mass / total for key, mass in masses.items()}


def top_category(probs: Mapping[str, float]) -> str:
    """The most probable label of a distribution; ties go to the smallest label."""
    return max(sorted(probs), key=probs.__getitem__)


def _group_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each group's correctly rounded sum.

    Floating-point addition rounds one sum of two values once, and adds
    integers whose magnitudes sum below 2**53 exactly, since every partial
    sum is an integer that a float holds; ``math.fsum`` sums the other
    groups of three or more.
    """
    sums = np.add.reduceat(values, starts)
    many = sizes > 2
    integral = values == np.trunc(values)
    if many.any() and integral.any():
        whole = integral.all() or np.logical_and.reduceat(integral, starts)
        # without a negative value, the magnitudes' sums are the sums
        magnitudes = sums if values.min() >= 0.0 else np.add.reduceat(np.abs(values), starts)
        many &= ~(whole & (magnitudes < 2.0**53))
    if many.any():
        flat = values[np.repeat(many, sizes)].tolist()
        ends = np.cumsum(sizes[many]).tolist()
        sums[many] = [math.fsum(flat[end - size : end]) for end, size in zip(ends, sizes[many].tolist())]
    return sums


def expected_entropy(masses, sizes) -> np.ndarray:
    """Digamma-based expected entropy of each group of evidence masses, in nats.

    The groups are laid end to end in ``masses``, ``sizes[g]`` masses for
    group g.  Each value is digamma(S) - sum_k (m_k / S) * digamma(m_k) over
    its group, with S the group's total; both sums are correctly rounded
    (:func:`_group_sums`), so a value does not depend on the order of its
    group's masses, and a group of one mass is exactly 0.0.  The sizes must
    sum to the number of masses.  Every mass must be positive and finite
    (ValueError otherwise), and a group with no mass raises NoEvidenceError.
    """
    masses = np.asarray(masses, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if not np.all((masses > 0.0) & (masses < math.inf)):
        raise ValueError("evidence masses must be positive and finite")
    if np.any(sizes < 1):
        raise NoEvidenceError("no evidence")
    if not len(sizes):
        return np.empty(0)
    starts = np.cumsum(sizes) - sizes
    totals = _group_sums(masses, starts, sizes)
    terms = masses / np.repeat(totals, sizes) * _psi(masses)
    return _psi(totals) - _group_sums(terms, starts, sizes)
