"""From a depth frame plus 2D masks to filtered 3D opinions.

Builds a toy frame where a prediction mask leaks onto a wall far behind the
object, then shows the clustering filter stripping the leaked points and the
leftover depth becoming the reserved unknown opinion.  Each opinion is keyed
at the voxel size of the map it is meant for.
"""

import numpy as np

from voxeland.frames import (
    CameraIntrinsics,
    Frame,
    FrameRecord,
    Pose,
    PredictionInstance,
)
from voxeland.opinions import ClusteringParams, build_opinions

width = height = 60
depth = np.full((height, width), 3000, dtype=np.uint16)  # wall at 3 m
depth[15:45, 15:45] = 1000  # object at 1 m

mask = np.zeros((height, width), dtype=bool)
mask[15:45, 15:45] = True
mask[20:30, 45:49] = True  # the mask leaks onto the wall

intr = CameraIntrinsics(fx=100, fy=100, cx=30, cy=30, width=width, height=height, depth_scale=0.001)
record = FrameRecord(
    frame_id=0,
    depth_path=None,
    predictions_path=None,
    pose=Pose(rotation=np.eye(3), translation=np.zeros(3)),
    intrinsics=intr,
)
frame = Frame(record=record, depth=depth, predictions=[PredictionInstance("box", 0.9, mask)])

params = ClusteringParams(coarse_voxel=0.08, eps=0.144, min_pts=4)
opinions = build_opinions(frame, params, voxel_size=0.02)

print(f"mask covers {int(mask.sum())} pixels ({int((depth[mask] == 3000).sum())} on the wall)")
for opinion in opinions:
    kind = "unknown background" if opinion.is_unknown else f"prediction '{opinion.category}'"
    z = opinion.points[:, 2]
    print(
        f"- {kind}: {len(opinion.points)} points in {len(opinion.keys)} voxels of "
        f"{opinion.voxel_size} m, depth range {z.min():.2f} .. {z.max():.2f} m"
    )
print("the leaked wall points were dropped from the object's geometric opinion")
