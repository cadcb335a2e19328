"""Map building for tests, through the write that integration makes."""

from __future__ import annotations

import numpy as np

from voxeland.voxelmap import MapState, pack_keys


def add_evidence(state: MapState, keys, instance_id: int, counts) -> None:
    """Add point counts of the instance ``instance_id`` in a batch of voxels.

    ``keys`` are voxel keys, shape (n, 3), or one key; ``counts`` gives one
    count per key, or one for all of them.  Counts of a key given twice add
    up.  The voxels become cells, a new one at log-odds 0, and the instance
    one of their owners (:meth:`OwnerTable.add_evidence`).
    """
    if instance_id not in state.instances:
        raise KeyError(f"instance {instance_id} is not registered")
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), len(keys))
    packed, inverse = np.unique(pack_keys(keys), return_inverse=True)
    summed = np.zeros(len(packed), dtype=np.int64)
    np.add.at(summed, inverse.reshape(-1), counts)
    state.cells.add_evidence(packed, instance_id, summed)
