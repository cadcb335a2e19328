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

Rows are assembled from token tables (see :mod:`voxeland.atomic`) built
from the integer voxel keys, not from float centers.  Each axis's distinct
keys come from a presence mask over its span (:func:`atomic._dense_ranks`,
no sort), and only those are formatted: as the ``"%.6f "`` token of the
voxel center in a PLY row, and as the ``"%d, "``, ``"%d, "`` or
``"%d]}"`` token of the key in a sidecar entry.  Colors come from a
palette, one ``"%d %d %d\\n"`` token per entry, and each vertex's shade
indexes it.  An entropy layer's palette is the ramp color of each of its
distinct values (one ``np.unique`` over their bits, so -0.0 stays apart
from 0.0), and the same shade indexes the sidecar's
``'{"entropy": %s, "key": ['`` tokens; a cell map's palette holds the id
color of each id that occurs, and the shade is the id's rank among them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .atomic import _dense_ranks, _row_chunks, _token_table, atomic_write
from .uncertainty import CategoryMixtures, UncertaintyLayer
from .voxelmap import _KEY_OFFSET, MapState, unpack_key_array


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


def _tokens(form, values: np.ndarray) -> np.ndarray:
    """The token table of ``form`` applied to each of ``values``."""
    return _token_table(list(map(form, values.tolist())))


def _checked_vertices(path, keys, palette, shade) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``write_ply``'s arguments as arrays, or a ValueError naming ``path``
    and the sizes that do not fit."""
    keys, palette, shade = np.asarray(keys), np.asarray(palette, dtype=np.uint8), np.asarray(shade)
    if keys.ndim != 2 or keys.shape[1] != 3 or keys.dtype.kind not in "iu":
        raise ValueError(f"{path}: keys of shape {keys.shape} and dtype {keys.dtype} are not (n, 3) integers")
    if keys.size and (keys.min() < -_KEY_OFFSET or keys.max() >= _KEY_OFFSET):
        raise ValueError(f"{path}: keys from {keys.min()} to {keys.max()} leave the packable range")
    if palette.ndim != 2 or palette.shape[1] != 3:
        raise ValueError(f"{path}: a palette of shape {palette.shape} is not (d, 3)")
    if shade.shape != (len(keys),) or shade.dtype.kind not in "iu":
        raise ValueError(f"{path}: {len(keys)} keys but shades of shape {shade.shape} and dtype {shade.dtype}")
    if shade.size and (shade.min() < 0 or shade.max() >= len(palette)):
        raise ValueError(
            f"{path}: shades from {shade.min()} to {shade.max()} leave a palette of {len(palette)} colors"
        )
    return keys, palette, shade


def write_ply(
    path: Path | str, keys: np.ndarray, voxel_size: float, palette: np.ndarray, shade: np.ndarray
) -> None:
    """Write vertex r at the center of voxel ``keys[r]``, colored ``palette[shade[r]]``.

    The arguments are checked before any file is opened: a ValueError
    leaves any previous file at ``path`` as it was.
    """
    keys, palette, shade = _checked_vertices(path, keys, palette, shade)
    header = (
        "ply\nformat ascii 1.0\n"
        f"element vertex {len(keys)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    columns = [
        (_tokens("%.6f ".__mod__, _voxel_centers(distinct, voxel_size)), index)
        for distinct, index in map(_dense_ranks, keys.T)
    ]
    columns.append((_token_table(["%d %d %d\n" % tuple(rgb) for rgb in palette.tolist()]), shade))
    with atomic_write(path, binary=True) as handle:
        handle.write(header.encode("ascii"))
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
    bits, shade = np.unique(values.view(np.int64), return_inverse=True)
    distinct, shade = bits.view(np.float64), shade.reshape(-1)
    write_ply(ply_path, keys, state.voxel_size, entropy_colors(distinct, h_max), shade)
    header = {
        "kind": layer.kind,
        "unit": "nats",
        "h_max": h_max,
        "generated_at_frame": layer.generated_at_frame,
    }
    columns = [(_tokens(lambda value: '{"entropy": %s, "key": [' % json.dumps(value), distinct), shade)]
    columns += [
        (_tokens(form.__mod__, axis), index)
        for form, (axis, index) in zip(("%d, ", "%d, ", "%d]}"), map(_dense_ranks, keys.T))
    ]
    # "values" sorts after every other field, so the sidecar is the sorted
    # header with the values list streamed in before its closing brace.
    with atomic_write(str(ply_path) + ".json", binary=True) as handle:
        handle.write((json.dumps(header, sort_keys=True)[:-1] + ', "values": [').encode("ascii"))
        handle.writelines(_row_chunks(columns, ", "))
        handle.write(b"]}")


def _write_cell_map(state: MapState, keys: np.ndarray, ids: np.ndarray, ply_path: Path | str) -> None:
    """Write the voxels of the ascending packed ``keys`` colored by ``ids``, in key order."""
    occurring, shade = _dense_ranks(ids)
    palette = np.array([_id_color(i) for i in occurring.tolist()], dtype=np.uint8).reshape(-1, 3)
    write_ply(ply_path, unpack_key_array(keys), state.voxel_size, palette, shade)


def export_instance_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax instance."""
    table = state.owner_table()
    _write_cell_map(state, table.keys, table.argmax_owners(), ply_path)


def export_semantic_map(state: MapState, ply_path: Path | str) -> None:
    """Color each evidence-bearing voxel by its argmax mixed category.

    Ties go to the smallest label, and a label the map has not registered
    colors as category 0.  Raises, before any file is opened, as
    :func:`uncertainty.semantic_entropy_map` does: when an instance's
    category evidence gives no distribution.
    """
    table = state.owner_table()
    mixtures = CategoryMixtures.of(state, table)
    category_index = {label: i for i, label in enumerate(state.categories)}
    index_of = np.array([category_index.get(label, 0) for label in mixtures.labels], dtype=np.int64)
    _write_cell_map(state, table.keys, index_of[mixtures.argmax()][mixtures.row_of_cell], ply_path)
