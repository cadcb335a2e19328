"""Point-cloud exports of map layers as ASCII PLY with JSON sidecars.

Entropy layers use a blue (low) to red (high) colormap over [0, H_max],
where H_max is the log of the relevant hypothesis-set size: the instance
registry for the geometric layer, the category registry for the semantic
one.  Instance and semantic maps color voxels by their argmax owner.
Vertices are voxel centers in ascending (i, j, k) key order.

Each export reads the map's owner table (or the layer's sorted packed keys
and value array) and does the rest on arrays; the semantic map takes its
argmax from the same category mixtures as the semantic layer
(:class:`CategoryMixtures`).

Rows are assembled from token tables (see :mod:`voxeland.atomic`).  A PLY
row is an ``"%.6f "`` token of each coordinate, from one table of the
axis's distinct coordinates, then a ``"%d %d %d\\n"`` token of its color,
from a table of the distinct colors.  A sidecar entry is a
``'{"entropy": %s, "key": ['`` token of its value, then ``"%d, "``,
``"%d, "`` and ``"%d]}"`` tokens of its key.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import _column, _row_chunks, atomic_write
from .uncertainty import CategoryMixtures, UncertaintyLayer
from .voxelmap import MapState, unpack_key_array


def entropy_colors(values: np.ndarray, h_max: float) -> np.ndarray:
    """Linear blue-to-red ramp as (n, 3) uint8; values are clipped to [0, h_max], NaN to 0."""
    values = np.asarray(values, dtype=float)
    if h_max <= 0:
        t = np.zeros_like(values)
    else:
        with np.errstate(over="ignore"):
            t = values / h_max
        t = np.where(np.isnan(t), 0.0, np.clip(t, 0.0, 1.0))
    colors = np.zeros((len(values), 3), dtype=np.uint8)
    # np.rint rounds half to even, like round().
    colors[:, 0] = np.rint(255 * t)
    colors[:, 2] = np.rint(255 * (1.0 - t))
    return colors


def _id_color(index: int) -> tuple[int, int, int]:
    """Deterministic distinct-ish color for a small integer id."""
    hue = (index * 0.61803398875) % 1.0
    sector = hue * 6.0
    x = 1.0 - abs(sector % 2.0 - 1.0)
    r, g, b = [(1, x, 0), (x, 1, 0), (0, 1, x), (0, x, 1), (x, 0, 1), (1, 0, x)][
        int(sector) % 6
    ]
    return (int(64 + 191 * r), int(64 + 191 * g), int(64 + 191 * b))


def _id_colors(ids: np.ndarray) -> np.ndarray:
    """(n, 3) uint8 colors of an array of non-negative ids, computing each
    occurring id's color once into a table indexed by id."""
    counts = np.bincount(ids)
    occurring = np.flatnonzero(counts)
    table = np.zeros((len(counts), 3), dtype=np.uint8)
    table[occurring] = np.array([_id_color(i) for i in occurring.tolist()], dtype=np.uint8).reshape(-1, 3)
    return table[ids]


def _rgb_token(rgb: int) -> str:
    return "%d %d %d\n" % (rgb >> 16, rgb >> 8 & 255, rgb & 255)


def write_ply(path: Path | str, points: np.ndarray, colors: np.ndarray) -> None:
    """Write one vertex per point, colored by the aligned row of ``colors``."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
    if len(points) != len(colors):
        raise ValueError(f"{path}: {len(points)} points but {len(colors)} colors")
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(points)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    rgb = (colors.astype(np.int64) << np.array([16, 8, 0])).sum(axis=1)
    columns = [_column(axis, "%.6f ".__mod__) for axis in points.T] + [_column(rgb, _rgb_token)]
    with atomic_write(path) as handle:
        handle.write(header)
        handle.writelines(_row_chunks(columns))


def _voxel_centers(keys: np.ndarray, voxel_size: float) -> np.ndarray:
    return (keys.astype(float) + 0.5) * voxel_size


def layer_h_max(state: MapState, kind: str) -> float:
    support = len(state.instances) if kind == "geometric" else len(state.categories)
    return math.log(max(2, support))


def export_entropy_layer(
    state: MapState, layer: UncertaintyLayer, ply_path: Path | str
) -> None:
    """Write the layer as a heat-colored PLY plus a raw-value JSON sidecar."""
    h_max = layer_h_max(state, layer.kind)
    keys, values = unpack_key_array(layer.values.packed_keys), layer.values.entropies
    write_ply(ply_path, _voxel_centers(keys, state.voxel_size), entropy_colors(values, h_max))
    header = {
        "kind": layer.kind,
        "unit": "nats",
        "h_max": h_max,
        "generated_at_frame": layer.generated_at_frame,
    }
    columns = [
        _column(values, lambda value: '{"entropy": %s, "key": [' % json.dumps(value)),
        _column(keys[:, 0], "%d, ".__mod__),
        _column(keys[:, 1], "%d, ".__mod__),
        _column(keys[:, 2], "%d]}".__mod__),
    ]
    # "values" sorts after every other field, so the sidecar is the sorted
    # header with the values list streamed in before its closing brace.
    with atomic_write(str(ply_path) + ".json") as handle:
        handle.write(json.dumps(header, sort_keys=True)[:-1] + ', "values": [')
        handle.writelines(_row_chunks(columns, ", "))
        handle.write("]}")


def _write_cell_map(state: MapState, keys: np.ndarray, ids: np.ndarray, ply_path: Path | str) -> None:
    """Write the voxels of the ascending packed ``keys`` colored by ``ids``, in key order."""
    write_ply(ply_path, _voxel_centers(unpack_key_array(keys), state.voxel_size), _id_colors(ids))


def export_instance_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax instance."""
    table = state.owner_table()
    _write_cell_map(state, table.keys, table.argmax_owners(), ply_path)


def export_semantic_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax mixed category.

    Ties go to the smallest label, and a label the map has not registered
    colors as category 0.  A cell whose mixture has no evidence (an owner's
    category evidence does not sum above zero) is left out.
    """
    table = state.owner_table()
    mixtures = CategoryMixtures.of(state, table)
    category_index = {label: i for i, label in enumerate(state.categories)}
    index_of = np.array([category_index.get(label, 0) for label in mixtures.labels], dtype=np.int64)
    labels = index_of[mixtures.argmax()][mixtures.row_of_cell]
    kept = mixtures.valid[mixtures.row_of_cell]
    _write_cell_map(state, table.keys[kept], labels[kept], ply_path)
