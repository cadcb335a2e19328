"""Text files: atomic writes, the row chunking and float formatting the
map's large writers share, and the exact-type checks of the readers.

Snapshots, PLY exports with their sidecars, ``timing.json`` and evaluation
reports all go through :func:`atomic_write`.  The text is written to a
temporary file in the target's directory and moved over the target with
``os.replace`` only once it is complete; if writing fails or is interrupted,
the temporary file is removed and any previous file is left as it was.
The temporary file is not fsynced, so this guards against a failed or
interrupted process, not against a power loss.

Snapshots, PLY files and sidecars are formatted and written
``_CHUNK_ROWS`` rows at a time, so no file's text is held whole, and no
container is built per row: a burst of container allocations sets off full
garbage collections over every object the process keeps alive.

The snapshot and dataset readers check parsed JSON values by exact type,
which ``int()`` or ``float()`` would not: they truncate or parse a string.
"""

from __future__ import annotations

import math
import os
import secrets
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO

import numpy as np

_CHUNK_ROWS = 1 << 16


@contextmanager
def atomic_write(path: Path | str) -> Iterator[TextIO]:
    """Yield a UTF-8 text handle whose contents replace ``path`` when the block exits."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temporary, "x", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _format_each(values: np.ndarray, format_one: Callable[[float], str]) -> list[str]:
    """``format_one`` of every float, called once per distinct bit pattern.

    Voxel centers, entropies and log-odds repeat a few values many times, and
    equal bits (so also -0.0 apart from 0.0) always format the same.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([format_one(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(-1)].tolist()


def _all_of(values: list, *types: type) -> bool:
    """Whether every value is exactly of one of ``types`` (so no bool passes for an int)."""
    return set(map(type, values)) <= set(types)


def _checked(value, name: str, *types: type):
    """``value`` if it is exactly of one of ``types`` and, when a float, finite;
    otherwise a ValueError naming ``name``."""
    if not _all_of([value], *types):
        expected = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{name} {value!r} is not {expected}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{name} {value!r} is not finite")
    return value
