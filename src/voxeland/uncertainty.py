"""Uncertainty layers derived from accumulated evidence.

Two layers are produced over the map:

* geometric -- per-voxel expected entropy of the instance-ownership evidence,
  high where conflicting opinions contested the voxel;
* semantic  -- per-voxel Shannon entropy of the category distribution obtained
  by total-probability mixing of per-instance category beliefs with the
  voxel's instance weights.

The expected entropy of each instance's category evidence drives category
declaration: confident instances are assigned their top category directly,
ambiguous or never-classified ones are flagged for external disambiguation.
It and the geometric layer are one :func:`evidence.expected_entropy` call
each, over groups of masses laid end to end.

Both layers are array passes over the map's owner table as it stands, bit
for bit the per-voxel definitions: each cell's owners are in ascending id
order, and every mixture is taken in that order with the rounding of the
per-voxel code (``math.log`` of each mixed probability).  A cell with one
owner has geometric entropy exactly 0 and the owner's category
distribution, so the per-owner work runs only over the contested cells
(:meth:`voxelmap.OwnerTable.contested`).  :class:`CategoryMixtures` is the
one category mixing pass, a few slice additions over the contested cells
ordered by their number of owners; the semantic export reads its argmax.
Entropies subtract their terms in label order, and every instance's
evidence is checked, so both semantic readers raise alike for evidence
that gives no distribution.

A layer keeps what those passes compute: the sorted packed keys of its cells
and their values, as two read-only arrays (:class:`LayerValues`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evidence import expected_entropy, probabilities, top_category
from .voxelmap import UNKNOWN_CATEGORY, UNKNOWN_INSTANCE_ID, MapState, OwnerTable

DEFAULT_ENTROPY_THRESHOLD = 0.5  # nats


class LayerValues:
    """A layer's value of each cell, as two aligned read-only arrays:
    ``packed_keys``, the cells' strictly increasing packed keys
    (:func:`voxelmap.pack_keys`), and ``entropies``, their float64 values.

    The arrays are the layer's own copies.  ``values()`` is the list of
    floats in key order.
    """

    def __init__(self, packed_keys: np.ndarray, entropies: np.ndarray) -> None:
        packed_keys = np.array(packed_keys, copy=True)
        entropies = np.array(entropies, dtype=np.float64, copy=True)
        if packed_keys.dtype != np.int64 or packed_keys.ndim != 1:
            raise ValueError(f"packed keys must be 1-d int64, not {packed_keys.dtype} {packed_keys.shape}")
        if entropies.shape != packed_keys.shape:
            raise ValueError(f"{len(packed_keys)} keys but values of shape {entropies.shape}")
        if np.any(np.diff(packed_keys) <= 0):
            raise ValueError("packed keys are not strictly increasing")
        packed_keys.flags.writeable = entropies.flags.writeable = False
        self.packed_keys, self.entropies = packed_keys, entropies

    def values(self) -> list[float]:
        return self.entropies.tolist()


@dataclass
class UncertaintyLayer:
    """One uncertainty layer of a map: its ``kind`` ("geometric" or
    "semantic"), the value of each evidence-bearing cell, and the number of
    frames the map had integrated when the layer was computed."""

    kind: str
    values: LayerValues
    generated_at_frame: int = 0


@dataclass
class CategoryDecision:
    instance_id: int
    final_category: str | None
    flagged: bool
    entropy: float | None


def _layer(kind: str, state: MapState, table: OwnerTable, values: np.ndarray) -> UncertaintyLayer:
    """The layer of ``values``, one per cell of the table in key order."""
    return UncertaintyLayer(
        kind=kind,
        values=LayerValues(table.keys, values),
        generated_at_frame=state.frames_integrated,
    )


def geometric_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel geometric entropy over every evidence-bearing cell, in key order.

    Each value is :func:`evidence.expected_entropy` of the cell's counts.  A
    cell with a single owner is exactly 0.0, so only the contested cells
    (:meth:`OwnerTable.contested`) are passed to it.
    """
    table = state.owner_table()
    contested = table.contested()
    entropies = np.zeros(len(table.keys))
    entropies[contested.cells] = expected_entropy(contested.counts, contested.sizes)
    return _layer("geometric", state, table, entropies)


@dataclass
class CategoryMixtures:
    """The category distribution of each evidence-bearing cell, as rows of
    dense arrays.

    A cell's distribution mixes its owners' category distributions by the
    law of total probability, each weighted by the owner's share of the
    cell's counts; the unknown instance, and any instance without category
    evidence, gives its whole share to the unknown category.

    Each instance's distribution is a row, in ascending id order, read by
    the cells it owns alone (with a share of exactly 1); each cell with two
    or more owners has a row of its own after them, in descending number of
    owners and then in key order, so the cells with more than k owners hold
    one contiguous block of rows.  Columns are the ``labels`` of every
    instance's category evidence and the unknown category, in string order,
    and a label a row does not hold has probability 0.  A shared cell's
    ``probs`` are accumulated owner by owner in ascending id order, from
    0.0, as a per-voxel mixture adds them: one slice addition per owner
    position k, of each share times its owner's row, into the block of the
    cells with more than k owners.
    """

    labels: list[str]
    probs: np.ndarray
    row_of_cell: np.ndarray

    @classmethod
    def of(cls, state: MapState, table: OwnerTable) -> "CategoryMixtures":
        """The mixtures of the cells of ``table``, the owner table of ``state``.

        Raises what :func:`evidence.probabilities` raises for an instance's
        category evidence: NoEvidenceError when it sums to 0, ValueError
        for a negative mass.
        """
        ids = sorted(state.instances)
        distributions = []
        for instance_id in ids:
            record = state.instances[instance_id]
            if record.is_unknown or not record.category_evidence:
                # its whole share goes to the unknown category
                distributions.append({UNKNOWN_CATEGORY: 1.0})
            else:
                distributions.append(probabilities(record.category_evidence))
        labels = sorted({label for dist in distributions for label in dist})
        column = {label: j for j, label in enumerate(labels)}
        contested = table.contested()
        # descending owner count, ties in key order
        order = np.argsort(-contested.sizes, kind="stable")
        row_of_id = np.zeros(ids[-1] + 1, dtype=np.int64)
        row_of_id[ids] = np.arange(len(ids))
        row_of_cell = row_of_id[table.ids[table.starts]]
        row_of_cell[contested.cells[order]] = len(ids) + np.arange(len(order))
        probs = np.zeros((len(ids) + len(order), len(labels)))
        for i, dist in enumerate(distributions):
            for label, p in dist.items():
                probs[i, column[label]] = p

        starts, sizes = contested.starts[order], contested.sizes[order]
        # the cells with more than k owners are the block's first rows, and
        # each adds its kth owner, so a row adds its owners in ascending id order
        for k in range(int(sizes.max(initial=0))):
            entries = starts[: np.count_nonzero(sizes > k)] + k
            terms = np.take(probs, row_of_id[contested.ids[entries]], axis=0)
            terms *= contested.shares[entries, None]
            probs[len(ids) : len(ids) + len(entries)] += terms
        return cls(labels, probs, row_of_cell)

    def entropies(self) -> np.ndarray:
        """The Shannon entropy of each row, in nats: ``p * log(p)`` subtracted
        in label order, with ``math.log`` taken once per distinct positive p,
        and 0 * log 0 taken as 0."""
        positive = self.probs > 0.0
        distinct, which = np.unique(self.probs[positive], return_inverse=True)
        logs = np.zeros_like(self.probs)
        logs[positive] = np.fromiter(map(math.log, distinct.tolist()), float, len(distinct))[which.reshape(-1)]
        entropy = np.zeros(len(self.probs))
        # a label a row does not hold subtracts 0 * 0.0, which leaves the sum as it is
        for terms in (self.probs * logs).T:
            entropy -= terms
        return np.where(entropy == 0.0, 0.0, entropy)

    def argmax(self) -> np.ndarray:
        """The column of each row's most probable label; ties go to the first in string order."""
        return np.argmax(self.probs, axis=1)


def semantic_entropy_map(state: MapState) -> UncertaintyLayer:
    """Per-voxel Shannon entropy of the mixed category distribution, in key order.

    Raises as :meth:`CategoryMixtures.of` does when an instance's category
    evidence gives no distribution.
    """
    table = state.owner_table()
    mixtures = CategoryMixtures.of(state, table)
    return _layer("semantic", state, table, mixtures.entropies()[mixtures.row_of_cell])


def declare_categories(
    state: MapState, entropy_threshold: float = DEFAULT_ENTROPY_THRESHOLD
) -> list[CategoryDecision]:
    """Assign final categories to confident instances, flag the rest.

    Instances whose category evidence has an expected entropy below the
    threshold get the highest-probability category; instances at or above
    it -- and instances with no category evidence at all -- are flagged for
    disambiguation.  The unknown instance is never declared.  Updates the
    records in place and returns one decision per non-unknown instance,
    ordered by id.
    """
    records = [state.instances[i] for i in sorted(state.instances) if i != UNKNOWN_INSTANCE_ID]
    evidence = [record.category_evidence for record in records if record.category_evidence]
    masses = [mass for beta in evidence for mass in beta.values()]
    entropies = iter(expected_entropy(masses, list(map(len, evidence))).tolist())
    decisions: list[CategoryDecision] = []
    for record in records:
        entropy = next(entropies) if record.category_evidence else None
        declared = entropy is not None and entropy < entropy_threshold
        record.final_category = top_category(probabilities(record.category_evidence)) if declared else None
        record.flagged = not declared
        decisions.append(
            CategoryDecision(
                instance_id=record.id,
                final_category=record.final_category,
                flagged=record.flagged,
                entropy=entropy,
            )
        )
    return decisions
