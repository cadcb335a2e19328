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

from dataclasses import dataclass, field

from .evidence import (
    CategoricalDistribution,
    NoEvidenceError,
    expected_entropy,
    probabilities,
    shannon_entropy,
)
from .opinions import UNKNOWN_CATEGORY
from .voxelmap import InstanceRecord, MapState, VoxelCell, VoxelKey, sole_owner

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


def geometric_entropy(cell: VoxelCell) -> float:
    """Expected entropy of a cell's instance evidence, in nats."""
    if not cell.instance_counts:
        raise NoEvidenceError("no evidence")
    return expected_entropy(cell.instance_counts)


def semantic_entropy(record: InstanceRecord) -> float:
    """Expected entropy of an instance's category evidence, in nats."""
    if record.is_unknown or not record.category_evidence:
        raise NotClassifiableError(f"instance {record.id} is not classifiable")
    return expected_entropy(record.category_evidence)


def voxel_category_distribution(cell: VoxelCell, state: MapState) -> CategoricalDistribution:
    """Category distribution of one voxel by the law of total probability.

    Instance weights come from the cell's evidence; each instance contributes
    its category distribution scaled by its weight.  The unknown instance --
    and any instance without category evidence -- contributes its full weight
    to the reserved unknown category.
    """
    weights = probabilities(cell.instance_counts)
    mixed: dict[str, float] = {}
    for instance_id, weight in weights.probs.items():
        record = state.instances[instance_id]
        if record.is_unknown or not record.category_evidence:
            mixed[UNKNOWN_CATEGORY] = mixed.get(UNKNOWN_CATEGORY, 0.0) + weight
            continue
        for category, p in record.category_distribution().probs.items():
            mixed[category] = mixed.get(category, 0.0) + weight * p
    return CategoricalDistribution(mixed)


def geometric_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel geometric entropy over every evidence-bearing cell, in cell order.

    A cell with a single owner gets exactly 0.0, which is what
    expected_entropy returns for it: digamma(m) - 1.0 * digamma(m).
    """
    values = {
        key: (
            0.0
            if sole_owner(cell.instance_counts) is not None
            else expected_entropy(cell.instance_counts)
        )
        for key, cell in state.cells.items()
        if cell.instance_counts
    }
    return UncertaintyLayer(
        kind="geometric", values=values, generated_at_frame=state.frames_integrated
    )


def semantic_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel Shannon entropy of the mixed category distribution, in cell order.

    A single-owner cell mixes with weight exactly 1.0 to its owner's own
    distribution, so its entropy is computed once per owner.
    """
    values: dict[VoxelKey, float] = {}
    by_owner: dict[int, float] = {}
    for key, cell in state.cells.items():
        if not cell.instance_counts:
            continue
        owner = sole_owner(cell.instance_counts)
        entropy = by_owner.get(owner) if owner is not None else None
        if entropy is None:
            entropy = shannon_entropy(voxel_category_distribution(cell, state))
            if owner is not None:
                by_owner[owner] = entropy
        values[key] = entropy
    return UncertaintyLayer(
        kind="semantic", values=values, generated_at_frame=state.frames_integrated
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
        if not record.category_evidence:
            record.final_category = None
            record.flagged = True
            decisions.append(
                CategoryDecision(
                    instance_id=instance_id, final_category=None, flagged=True, entropy=None
                )
            )
            continue
        entropy = semantic_entropy(record)
        if entropy < entropy_threshold:
            top = _argmax_category(record)
            record.final_category = top
            record.flagged = False
            decisions.append(
                CategoryDecision(
                    instance_id=instance_id, final_category=top, flagged=False, entropy=entropy
                )
            )
        else:
            record.final_category = None
            record.flagged = True
            decisions.append(
                CategoryDecision(
                    instance_id=instance_id, final_category=None, flagged=True, entropy=entropy
                )
            )
    return decisions


def _argmax_category(record: InstanceRecord) -> str:
    dist = record.category_distribution()
    best_label = None
    best_p = -1.0
    for label in sorted(dist.probs):
        p = dist.probs[label]
        if p > best_p:
            best_label = label
            best_p = p
    assert best_label is not None
    return best_label
