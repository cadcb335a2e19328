"""Atomic text-file writes: a reader finds the old file or the new one, never a part.

Snapshots, PLY exports with their sidecars, ``timing.json`` and evaluation
reports all go through :func:`atomic_write`.  The text is written to a
temporary file in the target's directory and moved over the target with
``os.replace`` only once it is complete; if writing fails or is interrupted,
the temporary file is removed and any previous file is left as it was.
The temporary file is not fsynced, so this guards against a failed or
interrupted process, not against a power loss.
"""

from __future__ import annotations

import os
import secrets
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TextIO


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
