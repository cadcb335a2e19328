"""The records of a snapshot file, read and written on their own, so that a
test can change one record of a valid file and load the result."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from voxeland.voxelmap import MapState

from oracles import footprints

RECORD_NAMES = ("header", "cell keys", "cell log-odds", "owner counts", "owner ids", "evidence counts")


def read_records(path: Path | str) -> dict:
    """The records of a snapshot file by name, the header parsed into a dict."""
    with open(path, "rb") as handle:
        records = {name: np.lib.format.read_array(handle, allow_pickle=False) for name in RECORD_NAMES}
    records["header"] = json.loads(records["header"].tobytes().decode("utf-8"))
    return records


def write_records(path: Path | str, records: dict) -> None:
    """Write ``records`` as a snapshot file, in the order given: every array
    as it is, and any other value (the parsed header) as compact, sorted-key
    JSON bytes."""
    with open(path, "wb") as handle:
        for value in records.values():
            if not isinstance(value, np.ndarray):
                text = json.dumps(value, sort_keys=True, separators=(",", ":"))
                value = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
            np.lib.format.write_array(handle, value, allow_pickle=value.dtype.hasobject)


def corrupted_snapshot(path: Path | str, state: MapState, corrupt) -> Path:
    """Save ``state`` to ``path``, then rewrite the file with ``corrupt``
    applied to its records; returns ``path``."""
    state.save_snapshot(path)
    records = read_records(path)
    corrupt(records)
    write_records(path, records)
    return Path(path)


def declare_shape(path: Path | str, name: str, shape: tuple[int, ...]) -> None:
    """Rewrite the snapshot file at ``path`` so that the ``.npy`` header of
    record ``name`` declares ``shape``; every record keeps its data bytes."""
    with open(path, "rb") as handle:
        arrays = {record: np.lib.format.read_array(handle, allow_pickle=False) for record in RECORD_NAMES}
    with open(path, "wb") as handle:
        for record, array in arrays.items():
            header = np.lib.format.header_data_from_array_1_0(array)
            if record == name:
                header["shape"] = shape
            np.lib.format.write_array_header_1_0(handle, header)
            handle.write(array.tobytes())


def schema_2_snapshot(path: Path | str, state: MapState) -> Path:
    """Write ``state`` at ``path`` as schema 2 laid it out: the header with a
    ``voxel_count`` per instance, the cells, then every footprint's keys and
    counts, concatenated in ascending id order, all as int64."""
    state.save_snapshot(path)
    header = read_records(path)["header"]
    ids = sorted(state.instances)
    found = footprints(state.cells, ids)
    for instance, (keys, _) in zip(header["instances"], found):
        instance["voxel_count"] = len(keys)
    records = {
        "header": {**header, "schema_version": 2},
        "cell keys": state.cells.keys,
        "cell log-odds": state.cells.log_odds,
        "footprint keys": np.concatenate([np.empty(0, np.int64), *(keys for keys, _ in found)]),
        "footprint counts": np.concatenate([np.empty(0, np.int64), *(counts for _, counts in found)]),
    }
    write_records(path, records)
    return Path(path)
