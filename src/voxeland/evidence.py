"""Sparse evidence and the entropy quantities computed from them.

Evidence accumulates as a sparse map from hypothesis id to non-negative mass
(integer point counts for instance evidence, confidence sums for category
evidence).  Hypotheses never observed are simply absent; all probability and
entropy computations run over the strictly positive support only, and
:func:`probabilities` refuses a negative mass.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

from scipy.special import digamma as _psi


class NoEvidenceError(ValueError):
    """Raised when a probability or entropy is requested from empty evidence."""


def digamma(x: float) -> float:
    """Digamma of a positive finite argument; any other is a ValueError
    rather than the NaN or infinity ``scipy.special.digamma`` returns."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma requires a positive finite argument, got {x!r}")
    return float(_psi(x))


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


def expected_entropy(masses: Mapping[Hashable, float]) -> float:
    """Digamma-based expected entropy of evidence masses, in nats.

    Computes digamma(S) - sum_k (m_k / S) * digamma(m_k) over the positive
    support, with S the total mass.  Sums use fsum, so the result is exactly
    invariant under entry reordering and id relabeling; the weighted form
    makes a single-support vector evaluate to exactly 0.0.
    """
    total = math.fsum(masses.values())
    if not masses or total <= 0.0:
        raise NoEvidenceError("no evidence")
    weighted = math.fsum((mass / total) * digamma(mass) for mass in masses.values())
    return digamma(total) - weighted


def shannon_entropy(probs: Mapping[Hashable, float]) -> float:
    """Shannon entropy in nats with the convention 0 * ln 0 = 0.

    The terms are subtracted in key order, ``sorted(probs)``, so the value
    does not depend on the order the mapping lists them; for a category
    distribution that is the column order of :class:`uncertainty.CategoryMixtures`.
    """
    entropy = 0.0
    for p in map(probs.__getitem__, sorted(probs)):
        if p < 0.0:
            raise ValueError(f"negative probability {p!r}")
        if p > 0.0:
            entropy -= p * math.log(p)
    return 0.0 if entropy == 0.0 else entropy
