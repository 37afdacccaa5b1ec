"""Sampling flight-recorder profiler built on ``sys._current_frames``.

The bench telemetry layer already times *sections*; this module answers
the next question — *where inside a section the CPU went* — without
instrumenting any code.  A daemon thread wakes ``hertz`` times per
second, snapshots every live Python stack, and folds each one into a
bounded counter of collapsed stacks (``outer;...;leaf count`` — the
format Brendan Gregg's ``flamegraph.pl`` and every modern flamegraph
viewer consume).

Design points:

* **Statistical, not tracing** — no ``sys.settrace`` overhead on the
  workload; cost scales with the sampling rate, not with the call rate.
  At the default ~97 Hz the overhead on the query benchmarks stays well
  under the 5 % budget (see ``bench_query_axes``'s overhead row).
* **Bounded retention** — at most ``max_stacks`` distinct collapsed
  stacks and ``max_frames`` frames per stack are kept; beyond that,
  samples fold into an ``(other)`` bucket and the ``profiler.dropped``
  counter ticks, so a runaway workload cannot balloon the recorder.
* **Never empty** — ``stop()`` takes one final synchronous sample if
  the thread never fired (workloads shorter than one sampling period),
  so short CI smoke runs still produce a usable artifact.

Attach to any CLI workload with the top-level ``--profile FILE`` flag,
or run one under ``repro profile -- <subcommand> ...``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from .metrics import MetricsRegistry, get_registry

__all__ = [
    "DEFAULT_HERTZ",
    "SamplingProfiler",
    "collapse_frame",
    "load_collapsed",
    "merge_collapsed",
    "render_top",
    "top_functions",
    "write_collapsed",
]

#: Default sampling rate.  Deliberately off the 100 Hz round number so
#: the sampler does not phase-lock with code that sleeps in 10 ms
#: multiples (the classic lockstep-sampling bias).
DEFAULT_HERTZ = 97.0

#: Label charged with samples that overflow the retention bounds.
OVERFLOW_KEY = "(other)"


def collapse_frame(frame) -> str:
    """One collapsed-stack token for a frame: ``module:function``."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Background statistical sampler with bounded collapsed-stack output.

    Usable as a context manager::

        with SamplingProfiler(hertz=97) as prof:
            workload()
        prof.write_collapsed("profile.collapsed")
        print(prof.render_top())
    """

    def __init__(self, hertz: float = DEFAULT_HERTZ, *,
                 max_stacks: int = 4096, max_frames: int = 64,
                 all_threads: bool = False,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if hertz <= 0:
            raise ValueError("hertz must be positive")
        self.hertz = float(hertz)
        self.interval_s = 1.0 / self.hertz
        self.max_stacks = int(max_stacks)
        self.max_frames = int(max_frames)
        self.all_threads = all_threads
        self.registry = registry if registry is not None else get_registry()
        self.samples = 0
        self.dropped = 0
        self.duration_s = 0.0
        self._counts: Dict[Tuple[str, ...], int] = {}
        self._target_thread_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = 0.0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin sampling the calling thread (or all threads)."""
        if self._thread is not None:
            raise RuntimeError("profiler already running")
        self._target_thread_id = threading.get_ident()
        self._stop.clear()
        self._started = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling; guarantees at least one sample was taken."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, self.interval_s * 10))
        self._thread = None
        self.duration_s += time.perf_counter() - self._started
        if self.samples == 0:
            # Workload finished inside one sampling period: record the
            # caller's own stack so the artifact is never empty.
            self._sample(sys._getframe().f_back)
        self.registry.counter("profiler.samples").increment(self.samples)
        if self.dropped:
            self.registry.counter("profiler.dropped").increment(self.dropped)

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            frames = sys._current_frames()
            if self.all_threads:
                for thread_id, frame in frames.items():
                    if thread_id != own_id:
                        self._sample(frame)
            else:
                frame = frames.get(self._target_thread_id)
                if frame is not None:
                    self._sample(frame)

    def _sample(self, frame) -> None:
        stack: List[str] = []
        while frame is not None and len(stack) < self.max_frames:
            stack.append(collapse_frame(frame))
            frame = frame.f_back
        if not stack:
            return
        stack.reverse()
        key = tuple(stack)
        with self._lock:
            self.samples += 1
            if key not in self._counts and len(self._counts) >= self.max_stacks:
                self.dropped += 1
                key = (OVERFLOW_KEY,)
            self._counts[key] = self._counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def collapsed(self) -> Dict[str, int]:
        """``"outer;...;leaf" -> samples`` in flamegraph collapsed form."""
        with self._lock:
            return {";".join(stack): count
                    for stack, count in self._counts.items()}

    def write_collapsed(self, path: str) -> int:
        """Write the collapsed stacks to ``path``; returns line count."""
        return write_collapsed(self.collapsed(), path)

    def top_functions(self, limit: int = 10) -> List[Dict[str, float]]:
        """Self/total sample table, heaviest self-time first."""
        return top_functions(self.collapsed(), limit=limit)

    def render_top(self, limit: int = 10) -> str:
        """Plain-text ``top-functions`` table for terminals."""
        return render_top(self.collapsed(), limit=limit,
                          total_samples=self.samples)


def write_collapsed(counts: Dict[str, int], path: str) -> int:
    """Persist a collapsed-stack mapping, one ``stack count`` per line."""
    lines = [f"{stack} {count}"
             for stack, count in sorted(counts.items())]
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def load_collapsed(path: str) -> Dict[str, int]:
    """Read a collapsed-stack file back into a mapping."""
    counts: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            if not stack:
                continue
            try:
                counts[stack] = counts.get(stack, 0) + int(count)
            except ValueError:
                continue
    return counts


def top_functions(counts: Dict[str, int],
                  limit: int = 10) -> List[Dict[str, float]]:
    """Rank functions by self samples (leaf frame) with totals.

    ``self`` counts samples where the function was the innermost frame;
    ``total`` counts samples where it appeared anywhere on the stack
    (each stack counted once, recursion deduplicated).
    """
    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for stack, count in counts.items():
        frames = stack.split(";")
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for name in set(frames):
            total_counts[name] = total_counts.get(name, 0) + count
    ranked = sorted(self_counts.items(),
                    key=lambda item: (-item[1], item[0]))
    return [
        {"function": name, "self": self_count,
         "total": total_counts.get(name, self_count)}
        for name, self_count in ranked[:limit]
    ]


def render_top(counts: Dict[str, int], limit: int = 10,
               total_samples: Optional[int] = None) -> str:
    """Text table of the hottest functions by self samples."""
    rows = top_functions(counts, limit=limit)
    if not rows:
        return "no samples recorded"
    grand = total_samples if total_samples else sum(counts.values())
    grand = max(1, grand)
    lines = [f"{'self':>6s} {'self%':>6s} {'total':>6s} function"]
    for row in rows:
        lines.append(
            f"{row['self']:6.0f} {100.0 * row['self'] / grand:5.1f}% "
            f"{row['total']:6.0f} {row['function']}")
    return "\n".join(lines)


def merge_collapsed(sources: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum several collapsed-stack mappings into one."""
    merged: Dict[str, int] = {}
    for counts in sources:
        for stack, count in counts.items():
            merged[stack] = merged.get(stack, 0) + count
    return merged
