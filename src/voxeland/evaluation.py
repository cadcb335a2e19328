"""Instance-level evaluation against pre-voxelized ground truth.

A map instance's predicted footprint is the sorted packed keys of the voxels
it owns by argmax evidence; its claimed category is the declared final
category when one was set, otherwise the top-probability category (the
plain top-1 baseline).  Predictions are greedily matched to same-category
ground-truth instances at a voxel IoU threshold, ranked by the map's own
belief in the claimed category, and per-class all-point average precision
is aggregated into mAP.  The argmax footprints come from the map's owner
table, and every prediction's overlap with every ground-truth instance from
one :func:`voxelmap.overlap_counts` call, scored by
:func:`voxelmap.overlap_scores`, as association and refinement do.  Ground
truth at another voxel size is rejected.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .evidence import expected_entropy, probabilities, top_category
from .frames import GroundTruthScene
from .voxelmap import UNKNOWN_INSTANCE_ID, MapState, _no_keys, overlap_counts, overlap_scores


@dataclass
class EvalConfig:
    iou_threshold: float = 0.5
    classes: list[str] | None = None  # None = classes present in ground truth

    def __post_init__(self) -> None:
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError("iou_threshold must lie in (0, 1]")


@dataclass
class PredictedInstance:
    instance_id: int
    category: str
    confidence: float
    semantic_entropy: float
    keys: np.ndarray = field(repr=False, compare=False)


@dataclass
class MatchRecord:
    instance_id: int
    category: str
    confidence: float
    is_tp: bool
    matched_gt: str | None
    iou: float


@dataclass
class EvalReport:
    per_class_ap: dict[str, float] = field(default_factory=dict)
    map_score: float = 0.0
    matches: list[MatchRecord] = field(default_factory=list)
    timing: dict | None = None

    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "per_class_ap": {k: self.per_class_ap[k] for k in sorted(self.per_class_ap)},
            "map_score": self.map_score,
            "matches": [
                {
                    "instance_id": m.instance_id,
                    "category": m.category,
                    "confidence": m.confidence,
                    "tp": m.is_tp,
                    "matched_gt": m.matched_gt,
                    "iou": m.iou,
                }
                for m in self.matches
            ],
            "timing": self.timing,
        }

    def save(self, path: Path | str) -> None:
        with atomic_write(path) as handle:
            handle.write(json.dumps(self.to_dict(), sort_keys=True))


def predicted_instances(state: MapState) -> list[PredictedInstance]:
    """Non-unknown instances with argmax voxel footprints and claimed categories.

    Instances without any category evidence cannot claim a class and are
    skipped; voxels whose argmax owner is the unknown instance belong to no
    prediction.  A prediction's ``semantic_entropy`` is the expected entropy
    of its category evidence, the quantity that flags an instance.
    """
    table = state.owner_table()
    owners = table.argmax_owners()
    # a stable sort by owner keeps each footprint's keys in cell order
    order = np.argsort(owners, kind="stable")
    ids, starts = np.unique(owners[order], return_index=True)
    footprints = dict(zip(ids.tolist(), np.split(table.keys[order], starts[1:])))
    records = [state.instances[i] for i in sorted(state.instances) if i != UNKNOWN_INSTANCE_ID]
    records = [record for record in records if record.category_evidence]
    dists = [probabilities(record.category_evidence) for record in records]
    masses = [mass for record in records for mass in record.category_evidence.values()]
    entropies = expected_entropy(masses, list(map(len, dists))).tolist()
    predictions = []
    for record, dist, entropy in zip(records, dists, entropies):
        category = record.final_category if record.final_category is not None else top_category(dist)
        predictions.append(
            PredictedInstance(
                instance_id=record.id,
                category=category,
                confidence=dist.get(category, 0.0),
                keys=footprints.get(record.id, _no_keys()),
                semantic_entropy=entropy,
            )
        )
    return predictions


def match_to_ground_truth(
    state: MapState, gt: GroundTruthScene, config: EvalConfig | None = None
) -> list[MatchRecord]:
    """Greedy confidence-ranked matching of predictions to ground truth.

    A prediction is a true positive when its voxel IoU with some not yet
    matched same-category ground-truth instance reaches the threshold; each
    ground-truth instance matches at most once.  Equal-confidence ties rank
    by lower instance id.  Raises ValueError when the ground truth's voxel
    size is not the map's.
    """
    return _match(state, predicted_instances(state), gt, config or EvalConfig())


def _match(
    state: MapState, predictions: list[PredictedInstance], gt: GroundTruthScene, config: EvalConfig
) -> list[MatchRecord]:
    """:func:`match_to_ground_truth` of the given predictions of ``state``."""
    # ground-truth keys index the map's voxels only at the map's voxel size
    if gt.voxel_size != state.voxel_size:
        raise ValueError(f"the ground truth's voxel size {gt.voxel_size} is not the map's {state.voxel_size}")
    predictions = sorted(predictions, key=lambda p: (-p.confidence, p.instance_id))
    overlap = overlap_counts([p.keys for p in predictions], [g.keys for g in gt.instances])
    predicted_sizes = np.array([len(p.keys) for p in predictions], dtype=np.int64)
    ious, _ = overlap_scores(overlap, predicted_sizes[:, None], [len(g.keys) for g in gt.instances])
    matched_gt: set[str] = set()
    records = []
    for prediction, row in zip(predictions, ious.tolist()):
        best_iou, best_gt = 0.0, None
        for gt_instance, overlap_iou in zip(gt.instances, row):
            eligible = gt_instance.category == prediction.category and gt_instance.id not in matched_gt
            if eligible and overlap_iou > best_iou:
                best_iou, best_gt = overlap_iou, gt_instance.id
        is_tp = best_gt is not None and best_iou >= config.iou_threshold
        if is_tp:
            matched_gt.add(best_gt)
        records.append(
            MatchRecord(
                instance_id=prediction.instance_id,
                category=prediction.category,
                confidence=prediction.confidence,
                is_tp=is_tp,
                matched_gt=best_gt if is_tp else None,
                iou=best_iou,
            )
        )
    return records


def average_precision(ranked_tp_flags: list[bool], num_gt: int) -> float | None:
    """All-point interpolated AP over a confidence-ranked TP/FP sequence.

    Precision is taken as the running maximum from the right of the PR curve.
    Returns None when the class has no ground truth (excluded from mAP).
    """
    if num_gt <= 0:
        return None
    true_positives = list(itertools.accumulate(map(int, ranked_tp_flags)))
    precisions = [tp / rank for rank, tp in enumerate(true_positives, start=1)]
    # right-max interpolation
    precisions = list(itertools.accumulate(reversed(precisions), max))[::-1]
    ap = previous_recall = 0.0
    for tp, precision in zip(true_positives, precisions):
        recall = tp / num_gt
        if recall > previous_recall:
            ap += (recall - previous_recall) * precision
            previous_recall = recall
    return ap


def evaluate(
    state: MapState,
    gt: GroundTruthScene,
    config: EvalConfig | None = None,
    timing: dict | None = None,
) -> EvalReport:
    """Per-class AP at the configured IoU threshold, averaged into mAP.

    Classes evaluated are the configured list when given, otherwise every
    class present in the ground truth; classes with predictions but no ground
    truth are excluded (reported as absent).  Raises ValueError as
    :func:`match_to_ground_truth` does.
    """
    config = config or EvalConfig()
    matches = match_to_ground_truth(state, gt, config)
    gt_counts = Counter(gt_instance.category for gt_instance in gt.instances)
    classes = config.classes if config.classes is not None else sorted(gt_counts)
    per_class_ap: dict[str, float] = {}
    for category in classes:
        ap = average_precision([m.is_tp for m in matches if m.category == category], gt_counts[category])
        if ap is not None:
            per_class_ap[category] = ap
    map_score = sum(per_class_ap.values()) / len(per_class_ap) if per_class_ap else 0.0
    return EvalReport(
        per_class_ap=per_class_ap, map_score=map_score, matches=matches, timing=timing
    )


def precision_vs_entropy(
    state: MapState,
    gt: GroundTruthScene,
    thresholds: list[float],
    config: EvalConfig | None = None,
) -> list[tuple[float, float]]:
    """Precision over predictions whose category evidence has an expected
    entropy below each threshold, as declaration ranks them.

    Thresholds admitting no prediction yield no curve point.  Correctness is
    the TP/FP outcome of the standard matching, which raises ValueError as
    there.
    """
    predictions = predicted_instances(state)
    matches = _match(state, predictions, gt, config or EvalConfig())
    entropy_by_id = {p.instance_id: p.semantic_entropy for p in predictions}
    points = []
    for threshold in thresholds:
        subset = [m.is_tp for m in matches if entropy_by_id[m.instance_id] < threshold]
        if subset:
            points.append((threshold, sum(subset) / len(subset)))
    return points
