"""Point-cloud exports of map layers as ASCII PLY with JSON sidecars.

Entropy layers use a blue (low) to red (high) colormap over [0, H_max],
where H_max is the log of the relevant hypothesis-set size: the instance
registry for the geometric layer, the category registry for the semantic
one.  Instance and semantic maps color voxels by their argmax owner.
Vertices are voxel centers in ascending (i, j, k) key order.

Each export reads the map's owner table (or the layer's values) and does
the rest on arrays; only cells with two or more owners are mixed one by one.
Rows are formatted and written in chunks (see :mod:`voxeland.atomic`).
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .atomic import _CHUNK_ROWS, _format_each, atomic_write
from .evidence import NoEvidenceError
from .uncertainty import UncertaintyLayer, voxel_category_distribution
from .voxelmap import MapState, pack_keys, unpack_key_array

_PLY_ROW = "%s %s %s %d %d %d\n"
_SIDECAR_ENTRY = '{"entropy": %s, "key": [%d, %d, %d]}'


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
    """(n, 3) uint8 colors of an id array, computing each distinct id's color once."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    table = np.array([_id_color(i) for i in distinct.tolist()], dtype=np.uint8).reshape(-1, 3)
    return table[inverse.reshape(-1)]


def write_ply(path: Path | str, points: np.ndarray, colors: np.ndarray) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(points)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with atomic_write(path) as handle:
        handle.write(header)
        for start in range(0, len(points), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            columns = [_format_each(points[start:stop, axis], "%.6f".__mod__) for axis in range(3)]
            columns += [colors[start:stop, axis].tolist() for axis in range(3)]
            # A row is one of zip's recycled tuples, so formatting allocates no containers.
            handle.write("".join(map(_PLY_ROW.__mod__, zip(*columns))))


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
    count = len(layer.values)
    keys = np.fromiter(
        itertools.chain.from_iterable(layer.values), dtype=np.int64, count=3 * count
    ).reshape(count, 3)
    values = np.fromiter(layer.values.values(), dtype=float, count=count)
    order = np.argsort(pack_keys(keys))
    keys, values = keys[order], values[order]
    write_ply(ply_path, _voxel_centers(keys, state.voxel_size), entropy_colors(values, h_max))
    header = {
        "kind": layer.kind,
        "unit": "nats",
        "h_max": h_max,
        "generated_at_frame": layer.generated_at_frame,
    }
    # "values" sorts after every other field, so the sidecar is the sorted
    # header with the values list streamed in before its closing brace.
    with atomic_write(str(ply_path) + ".json") as handle:
        handle.write(json.dumps(header, sort_keys=True)[:-1] + ', "values": [')
        for start in range(0, count, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            columns = [_format_each(values[start:stop], json.dumps)]
            columns += [keys[start:stop, axis].tolist() for axis in range(3)]
            handle.write(", " if start else "")
            handle.write(", ".join(map(_SIDECAR_ENTRY.__mod__, zip(*columns))))
        handle.write("]}")


def _write_cell_map(state: MapState, rows: np.ndarray, ids: np.ndarray, ply_path: Path | str) -> None:
    """Write the cells at ascending ``rows`` colored by ``ids``, in key order."""
    keys = unpack_key_array(state.cells.keys[rows])
    write_ply(ply_path, _voxel_centers(keys, state.voxel_size), _id_colors(ids))


def export_instance_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax instance."""
    table = state.owner_table()
    _write_cell_map(state, table.cell_rows, table.argmax_owners(), ply_path)


def export_semantic_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax mixed category.

    A cell whose mixture has no evidence (an owner's category evidence sums
    to zero) is left out.
    """
    category_index = {label: i for i, label in enumerate(state.categories)}

    def label(instance_counts: dict[int, int]) -> int:
        try:
            dist = voxel_category_distribution(instance_counts, state)
        except NoEvidenceError:
            return -1
        return category_index.get(str(dist.argmax()), 0)

    table = state.owner_table()
    labels = table.cell_values(label, dtype=np.int64)
    kept = labels >= 0
    _write_cell_map(state, table.cell_rows[kept], labels[kept], ply_path)
