"""Incremental probabilistic instance-aware semantic voxel mapping.

Per-frame 2D instance predictions are lifted to 3D as subjective opinions,
associated with map instances by volumetric overlap, and accumulated as
sparse evidence: per-voxel instance point counts and per-instance category
confidence sums.  Expected and Shannon entropies over that evidence yield
geometric and semantic uncertainty layers, and ambiguous instances can be
resolved through a pluggable external decision client.
"""

from .config import PipelineConfig
from .disambiguation import (
    ArgmaxClient,
    DisambiguationDecision,
    DisambiguationReport,
    DisambiguationRequest,
    HttpClient,
    MockClient,
    build_prompt,
    build_request,
    disambiguate_all,
    parse_decision,
    select_candidates,
    select_views,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    average_precision,
    evaluate,
    match_to_ground_truth,
    precision_vs_entropy,
    predicted_instances,
)
from .evidence import (
    CategoricalDistribution,
    NoEvidenceError,
    digamma,
    expected_entropy,
    probabilities,
    shannon_entropy,
)
from .frames import (
    CameraIntrinsics,
    DepthImage,
    Frame,
    FrameRecord,
    GroundTruthScene,
    Pose,
    PredictionInstance,
    decode_rle_mask,
    encode_rle_mask,
    load_frame,
    load_ground_truth,
    load_manifest,
)
from .fusion import (
    AssociationConfig,
    AssociationOutcome,
    Pipeline,
    associate,
    integrate_geometric,
    integrate_semantic,
    refine,
)
from .opinions import (
    UNKNOWN_CATEGORY,
    ClusteringParams,
    SubjectiveOpinion,
    build_opinions,
    dbscan,
    filter_geometric_opinions,
)
from .synthetic import (
    NoiseSpec,
    SceneObject,
    SyntheticScene,
    generate_synthetic,
    orbit_trajectory,
    voxelize_box_shell,
)
from .uncertainty import (
    LayerValues,
    UncertaintyLayer,
    declare_categories,
    geometric_entropy_map,
    semantic_entropy,
    semantic_entropy_map,
)
from .voxelmap import (
    UNKNOWN_INSTANCE_ID,
    InstanceRecord,
    MapState,
    OccupancyParams,
    SnapshotError,
)

__version__ = "0.1.0"
