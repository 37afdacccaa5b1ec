"""Deterministic fault injection for crash/recovery testing.

The durability guarantees of this package — a mid-batch exception rolls
the document back, an interrupted journal transaction is discarded on
recovery — are only worth stating if they can be *proved* at every point
a real process could die.  This module provides the proving apparatus: a
process-wide :class:`FaultInjector` that code under test arms with a
named fault point and a hit count, and cheap ``maybe_fail`` probes wired
into the update stack at the places a crash is most damaging:

========================  ====================================================
point                     fires inside
========================  ====================================================
``batch.operation``       :meth:`UpdateBatch._label_node`, before a new
                          node is labelled (mid-batch crash)
``batch.apply``           :meth:`UpdateBatch.apply`, before the consolidated
                          relabelling pass starts
``batch.relabel``         :meth:`UpdateBatch.apply`, after the new label map
                          is installed but before the label index is rebuilt
                          (the nastiest half-applied state)
``document.relabel``      :meth:`LabeledDocument._apply_relabeling`, between
                          individual label reassignments (mid-relabel crash)
``journal.append``        :meth:`Journal.append`, before the record reaches
                          the file (operation lost entirely)
``journal.torn``          :meth:`Journal.append`, after *half* the record's
                          bytes reach the file (a torn write)
``transaction.commit``    :meth:`Transaction.commit`, before the commit
                          marker is journalled
``pagefile.commit``       :meth:`PageFileBackend._do_put`, after the payload
                          pages are fsynced but before the directory record
                          (the put must vanish on recovery)
``pagefile.torn``         :meth:`PageFileBackend._do_put`, after *half* the
                          directory record's bytes reach the log (a torn
                          write; the discard rule must drop it)
========================  ====================================================

Faults are strictly deterministic: ``arm(point, at=3)`` fires on exactly
the third probe of that point and then disarms itself, so a test can
sweep every crash offset of a workload and assert the recovery invariant
at each one.  :class:`InjectedFault` deliberately derives from plain
``Exception`` — not :class:`~repro.errors.ReproError` — so no library
layer accidentally swallows an injected crash.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List


class InjectedFault(Exception):
    """The simulated crash raised at an armed fault point."""

    def __init__(self, point: str):
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class FaultInjector:
    """Arms named fault points to fire on an exact future probe."""

    def __init__(self):
        self._remaining: Dict[str, int] = {}
        self.triggered: Dict[str, int] = {}

    # -- arming ----------------------------------------------------------

    def arm(self, point: str, at: int = 1) -> None:
        """Make ``point`` fire on its ``at``-th probe from now (one-shot)."""
        if at < 1:
            raise ValueError("fault hit count must be >= 1")
        self._remaining[point] = at

    def disarm(self, point: str) -> None:
        """Forget any armed fault at ``point``."""
        self._remaining.pop(point, None)

    def reset(self) -> None:
        """Disarm every point and clear the trigger history."""
        self._remaining.clear()
        self.triggered.clear()

    def armed_points(self) -> List[str]:
        """The currently armed point names."""
        return sorted(self._remaining)

    # -- probing ---------------------------------------------------------

    def fires(self, point: str) -> bool:
        """Consume one probe of ``point``; True exactly when it crashes.

        Used by sites that need to act *around* the crash (the torn-write
        simulation); everything else uses :meth:`hit`.
        """
        remaining = self._remaining.get(point)
        if remaining is None:
            return False
        if remaining > 1:
            self._remaining[point] = remaining - 1
            return False
        del self._remaining[point]
        self.triggered[point] = self.triggered.get(point, 0) + 1
        return True

    def hit(self, point: str) -> None:
        """Probe ``point``; raise :class:`InjectedFault` when armed to fire."""
        if self.fires(point):
            raise InjectedFault(point)

    @contextmanager
    def injecting(self, point: str, at: int = 1) -> Iterator["FaultInjector"]:
        """Arm ``point`` for the block; always disarm on the way out."""
        self.arm(point, at=at)
        try:
            yield self
        finally:
            self.disarm(point)


#: The process-wide injector every built-in fault point probes.
_INJECTOR = FaultInjector()


def get_injector() -> FaultInjector:
    """The process-wide :class:`FaultInjector` singleton."""
    return _INJECTOR


def maybe_fail(point: str) -> None:
    """Probe one fault point (a no-op unless something is armed).

    The empty-dict check keeps the probe to one truthiness test on the
    hot paths when no test is injecting faults.
    """
    if not _INJECTOR._remaining:
        return
    _INJECTOR.hit(point)
