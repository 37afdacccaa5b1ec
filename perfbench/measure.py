"""Timing samples, sample summaries, metric validation, the result line.

The percentile rule: a timing is reported as its median and the highest
percentile with at least :data:`MIN_TAIL` samples beyond it.  The
benchmark reports p90, so a p90 needs at least 100 samples; a loop keeps
running past ``--seconds`` until it has them (see ``Samples.short``).

Timings are in *reference-CPU* seconds.  Shared virtual machines change
CPU speed in phases of seconds to minutes: on a 2-vCPU VM a fixed
pure-Python loop took 26-39 ms per 2-second window within one
150-second stretch, and whole 20-second runs of a workload came out up
to 1.5 times faster than their neighbours.  So right before each timed
interval a fixed calibration task is timed too, and the interval is
scaled by :data:`REFERENCE_S` over the median of the last few
calibrations: the result is the time the interval would have taken on
a CPU that runs the calibration task in ``REFERENCE_S``.  The task
fills and probes a dictionary of strings, which tracked the speed of
the program's parsing and serialising better than pure arithmetic did
(coefficient of variation over 69 windows: 0.06 against 0.10, raw
0.25), and allocates nothing the garbage collector tracks.
"""

from __future__ import annotations

import collections
import contextlib
import json
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence)

#: Samples a reported percentile must leave beyond it.
MIN_TAIL = 10

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_needed(quantile: float) -> int:
    """The fewest samples that leave ``MIN_TAIL`` beyond ``quantile``."""
    n = MIN_TAIL
    while n - math.ceil(quantile * n) < MIN_TAIL:
        n += 1
    return n


def percentile(samples: Sequence[float], quantile: float) -> float:
    """The nearest-rank ``quantile`` of ``samples``.

    Raises :class:`InsufficientSamples` unless at least ``MIN_TAIL``
    samples lie beyond the returned rank.
    """
    count = len(samples)
    rank = math.ceil(quantile * count)
    if count == 0 or count - rank < MIN_TAIL:
        raise InsufficientSamples(
            f"p{quantile * 100:g} of {count} samples leaves "
            f"{max(0, count - rank)} beyond it; {MIN_TAIL} are required "
            f"({samples_needed(quantile)} samples)"
        )
    return sorted(samples)[max(rank, 1) - 1]


@dataclass(frozen=True)
class Summary:
    """Median and p90 of one timing, with its sample count."""

    p50: float
    p90: float
    count: int


def summarize(samples: Sequence[float]) -> Summary:
    """Median and p90 of ``samples`` under the percentile rule."""
    return Summary(p50=statistics.median(samples),
                   p90=percentile(samples, 0.9), count=len(samples))


#: What the calibration task takes on the reference CPU, in seconds.
REFERENCE_S = 4.5e-4
#: Entries the calibration task puts in its dictionary.
CALIBRATION_ENTRIES = 1500
#: Calibrations whose median scales an interval (the latest ones).
CALIBRATION_WINDOW = 5


def calibrate() -> float:
    """Seconds the fixed calibration task takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for number in range(CALIBRATION_ENTRIES):
            table[number] = str(number)
        found = 0
        for number in range(0, 2 * CALIBRATION_ENTRIES, 2):
            if table.get(number) is not None:
                found += len(table[number])
        best = min(best, time.perf_counter() - started)
    return best


class Interval:
    """One ``Samples.timed`` block: its reference-CPU seconds, and the
    reference seconds per wall second it was scaled by."""

    seconds = 0.0
    scale = 1.0


class Samples:
    """Named timing samples of one workload run, in reference-CPU seconds."""

    def __init__(self, calibration: Callable[[], float] = calibrate):
        self._samples: Dict[str, List[float]] = {}
        self._calibration = calibration
        self._recent: collections.deque = collections.deque(
            maxlen=CALIBRATION_WINDOW)
        #: Every calibration taken, in seconds.
        self.calibrations: List[float] = []
        #: Wall seconds spent calibrating.
        self.calibrating_s = 0.0

    def scale(self) -> float:
        """Reference seconds per wall second, from a fresh calibration."""
        started = time.perf_counter()
        measured = self._calibration()
        self.calibrating_s += time.perf_counter() - started
        self._recent.append(measured)
        self.calibrations.append(measured)
        return REFERENCE_S / statistics.median(self._recent)

    @contextlib.contextmanager
    def timed(self, name: Optional[str] = None) -> Iterator[Interval]:
        """Time the block; on success add its reference seconds to ``name``.

        The calibration runs before the block's clock starts.
        """
        interval = Interval()
        interval.scale = self.scale()
        started = time.perf_counter()
        yield interval
        interval.seconds = (time.perf_counter() - started) * interval.scale
        if name is not None:
            self.add(name, interval.seconds)

    def add(self, name: str, seconds: float) -> None:
        self._samples.setdefault(name, []).append(seconds)

    def get(self, name: str) -> List[float]:
        return self._samples.get(name, [])

    def short(self, needs: Mapping[str, int]) -> bool:
        """Whether any named series still has fewer samples than needed."""
        return any(len(self.get(name)) < count
                   for name, count in needs.items())

    def median(self, name: str) -> float:
        values = self.get(name)
        if not values:
            raise InsufficientSamples(f"no {name} samples were taken")
        return statistics.median(values)

    def counts(self) -> Dict[str, int]:
        return {name: len(values) for name, values in self._samples.items()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Metric declarations and the result line
# ----------------------------------------------------------------------

def validate_declarations(declared: Iterable[Mapping[str, object]]) -> None:
    """Reject metric declarations the result format cannot carry."""
    seen = set()
    for entry in declared:
        name, unit = entry.get("name"), entry.get("unit")
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not isinstance(unit, str) or not _UNIT_RE.fullmatch(unit):
            raise ValueError(f"invalid unit {unit!r} for metric {name!r}")
        if name in seen:
            raise ValueError(f"metric {name!r} is declared twice")
        seen.add(name)


def result_metrics(declared: Sequence[Mapping[str, object]],
                   values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """The ``metrics`` object: exactly the declared names, with units.

    A declared metric without a value, a value for an undeclared name,
    and a value that is not a finite number are all errors.
    """
    validate_declarations(declared)
    names = [entry["name"] for entry in declared]
    missing = [name for name in names if name not in values]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, undeclared {extra}")
    metrics = {}
    for entry in declared:
        value = values[entry["name"]]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {entry['name']!r} has value {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Mapping[str, Mapping[str, object]]) -> str:
    """The final stdout line the benchmark contract asks for."""
    if attempted < 1 or failed < 0:
        raise ValueError(f"attempted={attempted} failed={failed}")
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": dict(metrics)})
