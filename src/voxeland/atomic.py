"""Files: atomic writes, the one guard of the readers of input files, and
their exact-type checks.

Snapshots, PLY exports with their sidecars, ``timing.json`` and evaluation
reports all go through :func:`atomic_write`.  The contents are written to a
temporary file in the target's directory and moved over the target with
``os.replace`` only once complete; if writing fails or is interrupted, the
temporary file is removed and any previous file is left as it was.  The
temporary file is not fsynced, so this guards against a failed or
interrupted process, not against a power loss.

Every reader of an input file parses it inside :func:`reading`, the one
place that decides which exceptions mean a malformed input, and checks
parsed JSON values by exact type, which ``int()`` or ``float()`` would not:
they truncate or parse a string.
"""

from __future__ import annotations

import math
import os
import secrets
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from tokenize import TokenError
from typing import IO


@contextmanager
def atomic_write(path: Path | str, binary: bool = False) -> Iterator[IO]:
    """Yield a handle whose contents replace ``path`` when the block exits:
    a UTF-8 text handle, or a byte handle if ``binary``."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temporary, "xb") if binary else open(temporary, "x", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temporary):
            # opening or replacing the temporary failed: name the file asked for
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


# What parsing a malformed input raises: the readers' own checks, json and UTF-8
# decoding, a missing key or index, and numpy's parser of a corrupt .npy header,
# which may raise a SyntaxError, a tokenize.TokenError or, as an error, a warning.
_MALFORMED = (
    KeyError, IndexError, TypeError, ValueError, OverflowError, AttributeError, SyntaxError, TokenError, Warning
)


@contextmanager
def reading(where: Path | str, error: type[ValueError] = ValueError) -> Iterator[None]:
    """Re-raise what a malformed input raises in the block as one ``error``
    whose message begins with ``where``: a missing key as such, an ``error``,
    ValueError or TypeError by its message, anything else by its class name
    and message.  An OSError, or any other exception, passes through."""
    try:
        yield
    except _MALFORMED as exc:
        if isinstance(exc, KeyError):
            detail = f"missing key {exc}"
        elif type(exc) in (error, ValueError, TypeError):
            detail = str(exc)
        else:
            detail = f"{type(exc).__name__}: {exc}"
        raise error(f"{where}: {detail}") from exc


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


def _number(value, name: str) -> float:
    """A JSON number as a float, checked by :func:`_checked`."""
    return float(_checked(value, name, int, float))


def _numbers(values: list, name: str, count: int) -> list[float]:
    """A list of ``count`` JSON numbers as floats."""
    if type(values) is not list or len(values) != count:
        raise ValueError(f"{name} {values!r} is not a list of {count} numbers")
    return [_number(value, name) for value in values]
