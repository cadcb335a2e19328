"""One structured configuration gathering every tunable of the pipeline.

Every key has a documented default; a JSON file may override any subset.
Values are checked when the configuration is built: a value of the wrong
type or out of range, or a key the configuration does not have, is a
ValueError, which names the file when it comes from one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .atomic import _all_of, _checked, reading
from .evaluation import EvalConfig
from .fusion import AssociationConfig
from .opinions import ClusteringParams
from .voxelmap import OccupancyParams


# The JSON types each field's declared type admits, keyed by its annotation.
_JSON_TYPES = {
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
    "list[str] | None": (list, type(None)),
}


@dataclass
class PipelineConfig:
    # map
    voxel_size: float = 0.02
    # opinion building
    coarse_voxel: float | None = None  # default: 4 * voxel_size
    dbscan_eps_factor: float = 1.8
    dbscan_min_pts: int = 4
    max_range: float = 4.0
    # association / refinement
    tau_iou: float = 0.4
    tau_ios: float = 0.7
    refine_every: int = 30
    # occupancy
    p_hit: float = 0.7
    p_miss: float = 0.4
    log_odds_min: float = -2.0
    log_odds_max: float = 3.5
    carve_free_space: bool = False
    carve_stride: int = 4
    # declaration / disambiguation
    entropy_threshold: float = 0.5
    min_prob: float = 0.15
    views_per_candidate: int = 3
    archive_views: bool = False
    # evaluation
    iou_threshold: float = 0.5
    eval_classes: list[str] | None = None
    # HTTP decision client
    endpoint: str = ""
    api_key_env: str = ""
    model: str = ""
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = _checked(getattr(self, spec.name), f"config {spec.name}", *_JSON_TYPES[spec.type])
            if isinstance(value, list) and not _all_of(value, str):
                raise ValueError(f"config {spec.name} holds a value that is not a string")
        for name in ("voxel_size", "max_range", "timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config {name} must be positive, got {getattr(self, name)!r}")
        if self.carve_stride < 1:
            raise ValueError(f"config carve_stride must be at least 1, got {self.carve_stride}")
        if self.entropy_threshold < 0 or self.views_per_candidate < 0:
            raise ValueError("config entropy_threshold and views_per_candidate must not be negative")
        if not 0.0 <= self.min_prob <= 1.0:
            raise ValueError(f"config min_prob must lie in [0, 1], got {self.min_prob}")
        # the parameter objects check the ranges of the rest
        self.clustering_params()
        self.association_config()
        self.occupancy_params()
        EvalConfig(iou_threshold=self.iou_threshold)

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        with reading(path):
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(obj, dict):
                raise ValueError("a config file holds one JSON object")
            unknown = sorted(set(obj) - {spec.name for spec in fields(cls)})
            if unknown:
                raise ValueError(f"unknown config keys {unknown}")
            return cls(**obj)

    def clustering_params(self) -> ClusteringParams:
        if self.coarse_voxel is None:
            coarse, origin = 4.0 * self.voxel_size, "4 x voxel_size"
        else:
            coarse, origin = self.coarse_voxel, "coarse_voxel"
        return ClusteringParams(
            coarse_voxel=coarse,
            eps=self.dbscan_eps_factor * coarse,
            min_pts=self.dbscan_min_pts,
            origin=origin,
        )

    def association_config(self) -> AssociationConfig:
        return AssociationConfig(
            tau_iou=self.tau_iou, tau_ios=self.tau_ios, refine_every=self.refine_every
        )

    def occupancy_params(self) -> OccupancyParams:
        return OccupancyParams(
            p_hit=self.p_hit,
            p_miss=self.p_miss,
            log_odds_min=self.log_odds_min,
            log_odds_max=self.log_odds_max,
        )
