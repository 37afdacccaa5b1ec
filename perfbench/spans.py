"""In-memory spans for the traced run, and the arithmetic over them.

A span records its name, start, end, parent and the identifier of the
request it belongs to.  Spans live in parallel lists while the run goes
and are written out once it ends (:meth:`SpanRecorder.write_jsonl`).

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Spans named ``bench.*`` hold the benchmark's own
work done inside a layer span (the hooks that count rows and nodes), so
that work is carved out of the layer's self time; together with the
time outside every layer span it is the run's *unattributed* time, and
``sum(layer self times) + unattributed == traced wall time``.
"""

from __future__ import annotations

import collections
import functools
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the span that wraps the benchmark's own bookkeeping hooks.
HOOK = "bench.hook"


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    overruns its parent (clock skew, a hook closing late) never makes a
    self time negative.
    """
    children: Dict[int, List[int]] = collections.defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = covered_length(
            (max(starts[child], start), min(ends[child], end))
            for child in children.get(index, ())
        )
        result.append(max(0.0, (end - start) - covered))
    return result


class SpanRecorder:
    """Collects spans in memory and wraps callables in them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[str] = []
        #: Counts measured at span boundaries (rows, labels, nodes ...).
        self.counts: Dict[str, float] = collections.defaultdict(float)
        #: Identifier shared by every span opened for the current request.
        self.request = ""
        self._stack: List[int] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of "
                               f"order (innermost is {self.names[popped]!r})")

    def parent_name(self, index: int) -> Optional[str]:
        parent = self.parents[index]
        return self.names[parent] if parent >= 0 else None

    def wrap(self, name: str, function: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``function`` inside a span called ``name``.

        ``before(args)`` runs ahead of the span and its return value is
        handed to ``after(index, args, result, state)``, which runs once
        the span has closed; both run inside a :data:`HOOK` span.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                hook = recorder.open(HOOK)
                try:
                    state = before(args)
                finally:
                    recorder.close(hook)
            index = recorder.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder.close(index)
            if after is not None:
                hook = recorder.open(HOOK)
                try:
                    after(index, args, result, state)
                finally:
                    recorder.close(hook)
            return result

        return traced

    # -- reading ---------------------------------------------------------

    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span.

        A span directly inside a span of the same name (a recursive
        call, or a classmethod delegating to a wrapped method) is not
        counted as a call of its own.
        """
        calls: Dict[str, int] = collections.Counter()
        seconds: Dict[str, float] = collections.defaultdict(float)
        for index, own in enumerate(self.self_times()):
            name = self.names[index]
            seconds[name] += own
            if self.parent_name(index) != name:
                calls[name] += 1
        return {name: (calls[name], seconds[name]) for name in seconds}

    def self_by_request(self) -> Dict[Tuple[str, str], float]:
        """Self seconds keyed by ``(span name, request identifier)``."""
        totals: Dict[Tuple[str, str], float] = collections.defaultdict(float)
        for index, own in enumerate(self.self_times()):
            totals[(self.names[index], self.requests[index])] += own
        return dict(totals)

    def root_time(self) -> float:
        """Wall time covered by spans that have no parent."""
        return covered_length(
            (start, end)
            for start, end, parent in zip(self.starts, self.ends,
                                          self.parents)
            if parent < 0
        )

    def write_jsonl(self, path: str) -> None:
        """Write every span out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "span": index, "name": name,
                    "start": self.starts[index], "end": self.ends[index],
                    "parent": self.parents[index],
                    "request": self.requests[index],
                }, separators=(",", ":")) + "\n")
