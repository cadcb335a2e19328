"""Uncertainty layers derived from accumulated evidence.

Two layers are produced over the map:

* geometric -- per-voxel expected entropy of the instance-ownership evidence,
  high where conflicting opinions contested the voxel;
* semantic  -- per-voxel Shannon entropy of the category distribution obtained
  by total-probability mixing of per-instance category beliefs with the
  voxel's instance weights.

Per-instance semantic entropy also drives category declaration: confident
instances are assigned their top category directly, ambiguous or
never-classified ones are flagged for external disambiguation.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .evidence import (
    CategoricalDistribution,
    expected_entropy,
    probabilities,
    shannon_entropy,
)
from .opinions import UNKNOWN_CATEGORY
from .voxelmap import InstanceRecord, MapState, VoxelKey, unpack_keys

DEFAULT_ENTROPY_THRESHOLD = 0.5  # nats


class NotClassifiableError(ValueError):
    """Raised for instances without category evidence (or the unknown one)."""


@dataclass
class UncertaintyLayer:
    kind: str  # "geometric" | "semantic"
    values: dict[VoxelKey, float] = field(default_factory=dict)
    generated_at_frame: int = 0


@dataclass
class CategoryDecision:
    instance_id: int
    final_category: str | None
    flagged: bool
    entropy: float | None


def semantic_entropy(record: InstanceRecord) -> float:
    """Expected entropy of an instance's category evidence, in nats."""
    if record.is_unknown or not record.category_evidence:
        raise NotClassifiableError(f"instance {record.id} is not classifiable")
    return expected_entropy(record.category_evidence)


def voxel_category_distribution(
    instance_counts: Mapping[int, int], state: MapState
) -> CategoricalDistribution:
    """Category distribution of one voxel by the law of total probability.

    Instance weights come from the voxel's evidence counts, keyed by instance
    id; each instance contributes
    its category distribution scaled by its weight.  The unknown instance --
    and any instance without category evidence -- contributes its full weight
    to the reserved unknown category.
    """
    weights = probabilities(instance_counts)
    mixed: dict[str, float] = {}
    for instance_id, weight in weights.probs.items():
        record = state.instances[instance_id]
        if record.is_unknown or not record.category_evidence:
            mixed[UNKNOWN_CATEGORY] = mixed.get(UNKNOWN_CATEGORY, 0.0) + weight
            continue
        for category, p in record.category_distribution().probs.items():
            mixed[category] = mixed.get(category, 0.0) + weight * p
    return CategoricalDistribution(mixed)


def _layer(kind: str, state: MapState, value_of: Callable[[dict[int, int]], float]) -> UncertaintyLayer:
    """``value_of`` the instance counts of every evidence-bearing cell, in key order."""
    table = state.owner_table()
    keys = unpack_keys(state.cells.keys[table.cell_rows])
    values = table.cell_values(value_of).tolist()
    return UncertaintyLayer(
        kind=kind, values=dict(zip(keys, values)), generated_at_frame=state.frames_integrated
    )


def geometric_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel geometric entropy over every evidence-bearing cell, in key order.

    A cell with a single owner gets exactly 0.0: digamma(m) - 1.0 * digamma(m).
    """
    return _layer("geometric", state, expected_entropy)


def semantic_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel Shannon entropy of the mixed category distribution, in key order."""
    return _layer(
        "semantic", state, lambda counts: shannon_entropy(voxel_category_distribution(counts, state))
    )


def declare_categories(
    state: MapState, entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
) -> list[CategoryDecision]:
    """Assign final categories to confident instances, flag the rest.

    Instances whose semantic entropy is below the threshold get the
    highest-probability category; instances at or above it -- and instances
    with no category evidence at all -- are flagged for disambiguation.  The
    unknown instance is never declared.  Updates the records in place and
    returns one decision per non-unknown instance, ordered by id.
    """
    decisions: list[CategoryDecision] = []
    for instance_id in sorted(state.instances):
        record = state.instances[instance_id]
        if record.is_unknown:
            continue
        entropy = semantic_entropy(record) if record.category_evidence else None
        declared = entropy is not None and entropy < entropy_threshold
        record.final_category = record.category_distribution().argmax() if declared else None
        record.flagged = not declared
        decisions.append(
            CategoryDecision(
                instance_id=instance_id,
                final_category=record.final_category,
                flagged=record.flagged,
                entropy=entropy,
            )
        )
    return decisions
