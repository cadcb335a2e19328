"""Files: atomic writes, the row assembly the map's large text writers
share, and the exact-type checks of the readers.

Snapshots, PLY exports with their sidecars, ``timing.json`` and evaluation
reports all go through :func:`atomic_write`.  The contents are written to a
temporary file in the target's directory and moved over the target with
``os.replace`` only once complete; if writing fails or is interrupted, the
temporary file is removed and any previous file is left as it was.  The
temporary file is not fsynced, so this guards against a failed or
interrupted process, not against a power loss.

PLY files and sidecars are assembled from columns of tokens.  A column is
a table of NUL-padded ASCII tokens (:func:`_token_table`), each the text of
one distinct value together with the fixed text around it, and each row's
index into that table; a row is one token of each column.  An integer
column's distinct values and row indices come from :func:`_dense_ranks`,
a presence mask over the column's span, with no sort.  The bytes are built
and written ``_CHUNK_ROWS`` rows at a time (:func:`_row_chunks`): each chunk
gathers its tokens into one byte block and drops the padding, so no file's
text is held whole, nothing is decoded or re-encoded, and no container is
built per row (a burst of container allocations sets off full garbage
collections over every object the process keeps alive).

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

import numpy as np

_CHUNK_ROWS = 1 << 16


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


Column = tuple[np.ndarray, np.ndarray]


def _token_table(tokens: list[str]) -> np.ndarray:
    """The tokens as a ``(len(tokens), width)`` uint8 table, each row NUL-padded.

    Padding is dropped by dropping NUL bytes, so a token must be ASCII
    without a NUL byte; any other token is a ValueError.
    """
    text = "".join(tokens)
    if not text.isascii() or "\0" in text:
        bad = next(token for token in tokens if not token.isascii() or "\0" in token)
        raise ValueError(f"token {bad!r} is not ASCII text without NUL bytes")
    table = np.array(tokens, dtype=bytes)
    return table.view(np.uint8).reshape(len(tokens), table.dtype.itemsize)


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integers of ``values`` in ascending order, and each
    value's index among them.

    They come from a presence mask over the values' span, the distinct
    values by ``flatnonzero`` and the indices by the mask's running count,
    so the cost is O(n + span) with no sort; the caller bounds the span.
    """
    if not len(values):
        return values[:0], np.zeros(0, dtype=np.intp)
    low = values.min()
    offsets = values - low
    present = np.zeros(offsets.max() + 1, dtype=bool)
    present[offsets] = True
    return np.flatnonzero(present) + low, np.cumsum(present)[offsets] - 1


def _row_chunks(columns: list[Column], separator: str = "") -> Iterator[np.ndarray]:
    """The bytes of the rows, ``_CHUNK_ROWS`` rows at a time, with ``separator``
    between rows.  Row r is each column's token ``table[index[r]]`` in turn."""
    gap = np.frombuffer(separator.encode("ascii"), dtype=np.uint8)
    count = len(columns[0][1])
    for start in range(0, count, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, count))
        # the first row's separator is cut off
        yield _chunk_bytes(columns, gap, rows)[0 if start else len(gap) :]


def _chunk_bytes(columns: list[Column], gap: np.ndarray, rows: slice) -> np.ndarray:
    """The bytes of ``rows``: each row's tokens, behind the separator ``gap``,
    gathered into one ``(rows, width)`` block whose padding one mask drops."""
    bounds = np.cumsum([len(gap)] + [table.shape[1] for table, _ in columns]).tolist()
    block = np.empty((rows.stop - rows.start, bounds[-1]), dtype=np.uint8)
    block[:, : len(gap)] = gap
    for (table, index), left, right in zip(columns, bounds, bounds[1:]):
        block[:, left:right] = np.take(table, index[rows], axis=0)
    return block[block != 0]


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
