"""Data association and evidential map integration.

Incoming opinions are matched to existing map instances by 3D overlap.  The
overlap count is the number of opinion points falling in voxels where the
candidate instance has evidence, both keyed at the map's voxel size; from
it :func:`voxelmap.overlap_scores` derives two scores:

* ``iou``  -- overlap / (points + instance voxels - overlap)
* ``ios``  -- overlap / min(points, instance voxels), which rescues matches
  of partial views that iou misses.

An opinion matches when either score passes its threshold; otherwise it
spawns a new instance.  The reserved unknown opinion is always associated
with the unknown map instance.  Before its opinions are integrated, the
voxels of all of them become map cells in one insertion.  Every N integrated
frames the map instances are associated against each other with the same
criterion and merged, which heals over-segmentation from disjoint first
observations; each merge takes the first passing pair in ascending (kept,
retired) id order, and rescores the merged instance only against the
instances that shared a voxel with either part.

Both count overlaps with :func:`voxelmap.overlap_counts` over one owner
table of the footprints and score them as arrays: association counts a
frame's opinions against every candidate in one call, and refinement counts
every pair of footprints in one call and each merged instance against its
neighbours in one more.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .frames import Frame, crop_bbox, read_ppm, write_ppm
from .opinions import ClusteringParams, SubjectiveOpinion, build_opinions
from .voxelmap import (
    UNKNOWN_INSTANCE_ID,
    MapState,
    Observation,
    overlap_counts,
    overlap_scores,
    pack_keys,
    points_to_keys,
    unpack_key_array,
)

STAGE_OPINIONS = "Opinions generation"
STAGE_ASSOCIATION = "Data association"
STAGE_INTEGRATION = "Map integration"
STAGE_REFINEMENT = "Map refinement"


@dataclass
class AssociationConfig:
    tau_iou: float = 0.4
    tau_ios: float = 0.7
    refine_every: int = 30

    def __post_init__(self) -> None:
        if not (0.0 < self.tau_iou <= 1.0 and 0.0 < self.tau_ios <= 1.0):
            raise ValueError("thresholds must lie in (0, 1]")
        if self.refine_every < 1:
            raise ValueError("refine_every must be at least 1")

    def passes(self, iou: np.ndarray, ios: np.ndarray) -> np.ndarray:
        """Where either score reaches its threshold."""
        return (iou >= self.tau_iou) | (ios >= self.tau_ios)


@dataclass
class AssociationOutcome:
    """Per-frame association result; every opinion index appears exactly once."""

    matches: list[tuple[int, int, float, float]] = field(default_factory=list)
    spawned: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class MergeEvent:
    kept_id: int
    retired_id: int
    iou: float
    ios: float


def _check_voxel_size(opinion: SubjectiveOpinion, state: MapState) -> None:
    if opinion.voxel_size != state.voxel_size:
        raise ValueError(f"opinion voxel size {opinion.voxel_size} differs from the map's {state.voxel_size}")


def associate(
    opinions: list[SubjectiveOpinion], state: MapState, config: AssociationConfig
) -> AssociationOutcome:
    """Match each opinion of one frame against the map instances.

    Semantic opinions match the candidate maximizing iou among those passing
    either threshold (ties: higher ios, then lower instance id); unmatched
    ones are marked for spawning, which registers a fresh instance id here.
    The unknown opinion is associated with the unknown instance
    unconditionally, and the unknown instance is never a candidate otherwise.
    Both thresholds are positive, so only the candidates an opinion overlaps
    are scored.  An opinion keyed at another voxel size is a ValueError.
    """
    for opinion in opinions:
        _check_voxel_size(opinion, state)
    outcome = AssociationOutcome()
    # instances spawned below own no voxel yet, so they are never candidates
    candidates = [
        record
        for instance_id, record in state.instances.items()
        if instance_id != UNKNOWN_INSTANCE_ID and record.voxel_count
    ]
    semantic = [o for o in opinions if not o.is_unknown]
    keys, counts = [o.keys for o in semantic], [o.counts for o in semantic]
    overlap = overlap_counts(keys, [record.keys for record in candidates], counts)
    points = np.array([len(o.points) for o in semantic], dtype=np.int64)
    ids = np.array([record.id for record in candidates], dtype=np.int64)
    iou, ios = overlap_scores(overlap, points[:, None], [record.voxel_count for record in candidates])
    rows, columns = np.nonzero(config.passes(iou, ios))
    # each row's largest (iou, ios, -id) of a passing candidate, which wins
    best: dict[int, tuple[float, float, int]] = {}
    passing = zip(iou[rows, columns].tolist(), ios[rows, columns].tolist(), (-ids[columns]).tolist())
    for row, scored in zip(rows.tolist(), passing):
        best[row] = max(best.get(row, scored), scored)
    semantic_rows = iter(range(len(semantic)))
    for index, opinion in enumerate(opinions):
        if opinion.is_unknown:
            outcome.matches.append((index, UNKNOWN_INSTANCE_ID, 0.0, 0.0))
        elif (scored := best.get(next(semantic_rows))) is None:
            outcome.spawned.append((index, state.new_instance()))
        else:
            best_iou, best_ios, negated_id = scored
            outcome.matches.append((index, -negated_id, best_iou, best_ios))
    return outcome


def integrate_geometric(
    opinion: SubjectiveOpinion, instance_id: int, state: MapState
) -> None:
    """Register the opinion's per-voxel point counts as instance evidence.

    Each touched voxel also receives exactly one occupancy hit, so occupancy
    tracks observation rather than point sampling density.  An opinion keyed
    at another voxel size than the map's is a ValueError.
    """
    record = state.instances.get(instance_id)
    if record is None:
        raise KeyError(f"instance {instance_id} is not registered")
    _check_voxel_size(opinion, state)
    state.integrate_occupancy(opinion.keys, hit=True)
    record.add_evidence(opinion.keys, opinion.counts)


def integrate_semantic(
    opinion: SubjectiveOpinion,
    instance_id: int,
    state: MapState,
    view_path: str | None = None,
) -> None:
    """Add the opinion's confidence to the instance's category evidence."""
    if instance_id == UNKNOWN_INSTANCE_ID:
        raise ValueError("the unknown instance cannot receive semantic evidence")
    if opinion.is_unknown:
        raise ValueError("unknown opinions carry no semantic evidence")
    record = state.instances[instance_id]
    record.category_evidence[opinion.category] = (
        record.category_evidence.get(opinion.category, 0.0) + opinion.confidence
    )
    state.register_category(opinion.category)
    record.observations.append(
        Observation(
            frame_id=opinion.source_frame,
            category=opinion.category,
            confidence=opinion.confidence,
            pixel_bbox=opinion.pixel_bbox,
            view_path=view_path,
        )
    )


def carve_free_space(
    opinion: SubjectiveOpinion,
    state: MapState,
    camera_origin: np.ndarray,
    stride_voxels: int = 4,
) -> None:
    """Optional occupancy misses along rays to observed surface voxels.

    Rays are sampled at a coarse stride; surface voxels are skipped.  Every
    sampled voxel receives one miss.  Off by default in the pipeline because
    dense carving dominates frame cost.  An opinion keyed at another voxel
    size than the map's is a ValueError.
    """
    _check_voxel_size(opinion, state)
    origin = np.asarray(camera_origin, dtype=float)
    voxel = state.voxel_size
    step = voxel * stride_voxels
    samples = [np.empty((0, 3))]
    for key in unpack_key_array(opinion.keys):
        direction = (key + 0.5) * voxel - origin
        distance = float(np.linalg.norm(direction))
        if distance > step:
            direction /= distance
            samples.append(origin + direction * np.arange(step, distance - voxel, step)[:, None])
    missed = np.unique(pack_keys(points_to_keys(np.concatenate(samples), voxel)))
    state.integrate_occupancy(np.setdiff1d(missed, opinion.keys, assume_unique=True), hit=False)


def refine(state: MapState, config: AssociationConfig) -> list[MergeEvent]:
    """Merge map instances whose voxel footprints associate with each other.

    Matching pairs merge into the older (smaller) id: voxel evidence and
    category evidence are summed, observation logs concatenated, and the
    newer id retired.  Repeats until no pair passes, so chained overlaps
    collapse transitively; each merge takes the passing pair that comes first
    in ascending (kept, retired) order.  The unknown instance never
    participates.

    Both thresholds are positive, so only pairs sharing a voxel can pass.  One
    :func:`overlap_counts` call over every footprint gives the shared-voxel
    count of every pair, kept as an upper-triangular matrix over the ids in
    ascending order with the pairs' iou, ios and passing matrices beside it;
    the first passing entry in row-major order is the next merge.  A merge
    changes only the pairs of the two instances it touches: the retired
    one's row and column are cleared, and the kept one is recounted from its
    merged footprint.  The merged footprint shares a voxel only with the
    instances that shared one with either part, so the kept one is recounted
    and rescored against those alone, in one more call.
    """
    ids = [instance_id for instance_id in sorted(state.instances) if instance_id != UNKNOWN_INSTANCE_ID]
    records = [state.instances[instance_id] for instance_id in ids]
    footprints = [record.keys for record in records]
    sizes = np.array([record.voxel_count for record in records], dtype=np.int64)
    shared = np.triu(overlap_counts(footprints, footprints), 1)
    iou, ios = overlap_scores(shared, sizes[:, None], sizes)
    passing = config.passes(iou, ios)

    events: list[MergeEvent] = []
    while passing.any():
        keep, retire = divmod(int(np.argmax(passing)), len(ids))
        scores = float(iou[keep, retire]), float(ios[keep, retire])
        events.append(MergeEvent(ids[keep], ids[retire], *scores))
        _merge_instances(state, ids[keep], ids[retire])
        touching = shared[keep] + shared[:, keep] + shared[retire] + shared[:, retire]
        touching[[keep, retire]] = 0
        others = np.flatnonzero(touching)
        shared[retire] = shared[:, retire] = 0
        passing[retire] = passing[:, retire] = False
        sizes[keep] = records[keep].voxel_count
        pairs = np.minimum(others, keep), np.maximum(others, keep)
        shared[pairs] = overlap_counts([records[keep].keys], [records[other].keys for other in others])[0]
        iou[pairs], ios[pairs] = overlap_scores(shared[pairs], sizes[pairs[0]], sizes[pairs[1]])
        passing[pairs] = config.passes(iou[pairs], ios[pairs])
    return events


def _merge_instances(state: MapState, keep_id: int, retire_id: int) -> None:
    keep = state.instances[keep_id]
    retire = state.instances[retire_id]
    keep.add_evidence(retire.keys, retire.counts)
    for category, mass in retire.category_evidence.items():
        keep.category_evidence[category] = keep.category_evidence.get(category, 0.0) + mass
    keep.observations.extend(retire.observations)
    # evidence changed; any earlier declaration is stale
    keep.final_category = None
    keep.flagged = False
    del state.instances[retire_id]


@dataclass
class StageTimer:
    """Accumulates wall-clock time per pipeline stage."""

    totals: dict[str, float] = field(
        default_factory=lambda: {
            STAGE_OPINIONS: 0.0,
            STAGE_ASSOCIATION: 0.0,
            STAGE_INTEGRATION: 0.0,
            STAGE_REFINEMENT: 0.0,
        }
    )
    counts: dict[str, int] = field(
        default_factory=lambda: {
            STAGE_OPINIONS: 0,
            STAGE_ASSOCIATION: 0,
            STAGE_INTEGRATION: 0,
            STAGE_REFINEMENT: 0,
        }
    )
    frames: int = 0
    elapsed: float = 0.0

    def record(self, stage: str, seconds: float) -> None:
        self.totals[stage] += seconds
        self.counts[stage] += 1

    def report(self) -> dict:
        stages = {}
        for stage, total in self.totals.items():
            runs = self.counts[stage]
            stages[stage] = {
                "mean_ms": (total / runs * 1000.0) if runs else 0.0,
                "runs": runs,
            }
        hz = self.frames / self.elapsed if self.elapsed > 0 else 0.0
        return {"stages": stages, "frames": self.frames, "frame_rate_hz": hz}


class Pipeline:
    """Frame-to-frame mapping driver owning a MapState.

    When ``view_store`` is set and a frame's manifest record carries an RGB
    path, the bbox crop of every integrated semantic opinion is archived
    there and its path recorded in the observation log for later view
    selection.  ``merges`` records every refinement merge as
    ``(frame_id, event)``, in the order the merges happened.
    """

    def __init__(
        self,
        state: MapState,
        clustering: ClusteringParams,
        association: AssociationConfig | None = None,
        max_range: float = 4.0,
        carve: bool = False,
        carve_stride: int = 4,
        view_store: Path | str | None = None,
    ) -> None:
        self.state = state
        self.clustering = clustering
        self.association = association or AssociationConfig()
        self.max_range = max_range
        self.carve = carve
        self.carve_stride = carve_stride
        self.view_store = Path(view_store) if view_store is not None else None
        self.timer = StageTimer()
        self.merges: list[tuple[int, MergeEvent]] = []

    def _archive_view(
        self, frame: Frame, opinion: SubjectiveOpinion, instance_id: int, rgb: Callable[[], np.ndarray]
    ) -> str | None:
        if (
            self.view_store is None
            or frame.record.rgb_path is None
            or opinion.pixel_bbox is None
        ):
            return None
        self.view_store.mkdir(parents=True, exist_ok=True)
        crop = crop_bbox(rgb(), opinion.pixel_bbox)
        path = self.view_store / f"inst{instance_id:04d}_frame{frame.frame_id:05d}.ppm"
        write_ppm(path, crop)
        return str(path)

    def process_frame(self, frame: Frame) -> AssociationOutcome:
        """build opinions -> associate -> integrate -> refine when due."""
        start = time.perf_counter()
        opinions = build_opinions(frame, self.clustering, self.max_range, voxel_size=self.state.voxel_size)
        mark = time.perf_counter()
        self.timer.record(STAGE_OPINIONS, mark - start)

        outcome = associate(opinions, self.state, self.association)
        now = time.perf_counter()
        self.timer.record(STAGE_ASSOCIATION, now - mark)
        mark = now

        assignments = list(outcome.matches) + [
            (index, instance_id, 0.0, 0.0) for index, instance_id in outcome.spawned
        ]
        assignments.sort(key=lambda item: item[0])
        # every voxel of the frame becomes a cell here, so integration finds
        # each of its keys in the cells and inserts none
        # a stable sort merges the opinions' sorted runs, far faster than np.unique's
        # sort; packed keys are non-negative, so the first key differs from -1
        keys = np.sort(np.concatenate([np.empty(0, np.int64), *(o.keys for o in opinions)]), kind="stable")
        self.state.add_cells(keys[np.diff(keys, prepend=-1) != 0])
        rgb = functools.cache(lambda: read_ppm(frame.record.rgb_path))
        for index, instance_id, _, _ in assignments:
            opinion = opinions[index]
            integrate_geometric(opinion, instance_id, self.state)
            if not opinion.is_unknown:
                view_path = self._archive_view(frame, opinion, instance_id, rgb)
                integrate_semantic(opinion, instance_id, self.state, view_path=view_path)
            if self.carve:
                carve_free_space(
                    opinion, self.state, frame.record.pose.translation, self.carve_stride
                )
        self.state.frames_integrated += 1
        now = time.perf_counter()
        self.timer.record(STAGE_INTEGRATION, now - mark)
        mark = now

        if self.state.frames_integrated % self.association.refine_every == 0:
            events = refine(self.state, self.association)
            self.merges.extend((frame.frame_id, event) for event in events)
            self.timer.record(STAGE_REFINEMENT, time.perf_counter() - mark)

        self.timer.frames += 1
        self.timer.elapsed += time.perf_counter() - start
        return outcome
