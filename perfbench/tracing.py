"""Spans and counters recorded around the program's public functions.

The program itself carries no tracing.  A :class:`Tracer` replaces a function
on the module (or class) that its caller looks it up on, records one span per
call, and restores the original on :meth:`Tracer.uninstall`.  Spans stay in
memory; :meth:`Tracer.write_jsonl` writes them out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded and nested, so children never overlap and that is
the sum of the children's durations.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

Counter = Callable[[tuple, dict, object], int]


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers --------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        counters: dict[str, Counter] | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        Each counter maps ``(args, kwargs, result)`` to an amount added to the
        count ``<name>.<counter>``.  A missing attribute is noted as absent.
        """
        raw = _lookup(owner, attr)
        if raw is None:
            self.absent.append(name)
            return
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        counters = counters or {}
        spans, stack, counts = self.spans, self._stack, self.counts
        for counter in counters:
            counts[f"{name}.{counter}"] += 0

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for counter, amount in counters.items():
                counts[f"{name}.{counter}"] += amount(args, kwargs, result)
            return result

        self._install(owner, attr, raw, _rewrap(raw, traced))

    def count_calls(self, owner: object, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without recording spans.

        For helpers called once per map cell, where a span per call would cost
        more than the call.
        """
        raw = _lookup(owner, attr)
        if raw is None:
            self.absent.append(key)
            return
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        counts = self.counts
        counts[key] += 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        self._install(owner, attr, raw, _rewrap(raw, counted))

    def _install(self, owner: object, attr: str, raw: object, replacement: object) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- explicit spans -------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- output ---------------------------------------------------------------

    def records(self, process: str) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "process": process}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]

    def write_jsonl(self, path: Path, process: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for record in self.records(process):
                handle.write(json.dumps(record) + "\n")


def self_times(records: list[dict]) -> dict[str, float]:
    """Total self time per span name, in seconds, over span records of one process."""
    child_time = [0.0] * len(records)
    for record in records:
        if record["parent"] >= 0:
            child_time[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = defaultdict(float)
    for record, children in zip(records, child_time):
        totals[record["name"]] += (record["end"] - record["start"]) - children
    return dict(totals)


def read_jsonl(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _lookup(owner: object, attr: str) -> object | None:
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        return None
    return getattr(owner, attr, None)


def _rewrap(raw: object, function: Callable) -> object:
    if isinstance(raw, classmethod):
        return classmethod(function)
    if isinstance(raw, staticmethod):
        return staticmethod(function)
    return function
