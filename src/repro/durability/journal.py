"""The write-ahead update journal: append, sync, replay, recover.

A :class:`Journal` is an append-only log that makes committed update
transactions durable.  The file starts with a **base record** — a full
:class:`~repro.store.repository.Snapshot` of the document (XML text,
scheme name *and configuration*, and the bit-exact label stream through
the codecs) — followed by transaction records: ``begin``, one ``op``
per declarative :class:`~repro.updates.operations.Operation`, and a
``commit`` or ``rollback`` marker.  Records are JSON, one per line, each
terminated by a newline; a line without its newline is a torn write and
is discarded on recovery.

Recovery (:func:`recover`) restores the base snapshot and replays the
operations of every *committed* transaction, in order, through the
ordinary update surface — the same code path that applied them the
first time — so the recovered document's labels are bit-identical to
the state at the last commit.  Operations of a transaction that never
committed (a crash mid-transaction, an explicit rollback) are discarded
entirely: recovery lands on a commit boundary, never in between.

Sync policies trade durability for append latency, mirroring real WAL
implementations:

* ``"always"`` — flush + fsync after every append (and every marker);
* ``"commit"`` — flush per append, fsync only at commit (the default);
* ``"never"`` — leave buffering to the OS until :meth:`close`.

Appends, syncs, commits, rollbacks and recoveries are counted in the
:mod:`repro.observability` registry under ``durability.journal.*`` and
``durability.recover*``; appends, fsyncs and recovery are also
``journal.*`` instrumentation events, whose durations the op-log
publishes as ``ops.journal.<kind>.ms``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.faults import InjectedFault, get_injector, maybe_fail
from repro.errors import JournalError, RecoveryError, StorageError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.store.snapshots import (
    Snapshot,
    restore_snapshot,
    snapshot_document,
)
from repro.updates.document import LabeledDocument
from repro.updates.operations import Operation, dispatch_operation

#: The accepted sync policies, strictest first.
SYNC_POLICIES = ("always", "commit", "never")


class Journal:
    """An append-only write-ahead log for one document's updates.

    Create a fresh journal around a document with :meth:`create`, or
    attach to an existing file with the constructor (appends continue
    after the last recorded transaction).  Usable as a context manager;
    :meth:`close` is safe to call twice.
    """

    def __init__(self, path, sync: str = "commit"):
        if sync not in SYNC_POLICIES:
            raise JournalError(
                f"unknown sync policy {sync!r}; known: {list(SYNC_POLICIES)}"
            )
        self.path = os.fspath(path)
        self.sync_policy = sync
        self._next_txn = 1
        self._open_txn: Optional[int] = None
        self._has_base = False
        self._failed = False
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            entries, torn = read_journal(self.path)
            if torn:
                # A torn tail must not survive reattachment: appending
                # after the torn bytes would fuse two records into one
                # corrupt mid-file line, making the whole journal —
                # committed transactions included — unreadable.
                _truncate_torn_tail(self.path)
            self._has_base = bool(entries) and entries[0]["type"] == "base"
            txns = [
                int(entry["txn"]) for entry in entries if "txn" in entry
            ]
            self._next_txn = max(txns, default=0) + 1
        self._file = open(self.path, "a", encoding="utf-8")
        registry = get_registry()
        self._metric_appends = registry.counter("durability.journal.appends")
        self._metric_syncs = registry.counter("durability.journal.syncs")
        self._metric_commits = registry.counter("durability.journal.commits")
        self._metric_rollbacks = registry.counter(
            "durability.journal.rollbacks"
        )

    @classmethod
    def create(cls, path, ldoc: LabeledDocument, name: str = "document",
               sync: str = "commit") -> "Journal":
        """Start a fresh journal seeded with ``ldoc``'s base snapshot."""
        if os.path.exists(path):
            os.remove(path)
        journal = cls(path, sync=sync)
        journal.write_base(ldoc, name=name)
        return journal

    # -- writing ---------------------------------------------------------

    def write_base(self, ldoc: LabeledDocument,
                   name: str = "document") -> None:
        """Record the snapshot all later transactions replay against."""
        if self._has_base:
            raise JournalError("journal already has a base record")
        snapshot = snapshot_document(ldoc, name)
        self._write({
            "type": "base",
            "name": snapshot.name,
            "scheme": snapshot.scheme_name,
            "config": dict(snapshot.scheme_config),
            "on_collision": ldoc.on_collision,
            "xml": snapshot.xml,
            "labels": snapshot.label_stream.hex(),
        })
        self._sync_if("always", "commit")
        self._has_base = True

    def begin(self) -> int:
        """Open a journal transaction; returns its id."""
        self._require_base()
        if self._open_txn is not None:
            raise JournalError("journal already has an open transaction")
        txn = self._next_txn
        self._next_txn += 1
        self._open_txn = txn
        self._write({"type": "begin", "txn": txn})
        self._sync_if("always")
        return txn

    def append(self, operation: Operation) -> None:
        """Write-ahead-log one operation of the open transaction."""
        self._require_base()
        if self._open_txn is None:
            self.begin()
        with instrument("journal.append", kind=operation.kind.value,
                        sync=self.sync_policy):
            record = {"type": "op", "txn": self._open_txn}
            record.update(operation.to_dict())
            line = json.dumps(record, separators=(",", ":"))
            injector = get_injector()
            if injector.fires("journal.torn"):
                # Simulate a crash halfway through the physical write:
                # half the record's bytes reach the file, no newline.
                # The journal is failed from here on — a real crashed
                # process writes nothing further, and appending anything
                # after the torn bytes would corrupt the line beyond the
                # torn-tail discard rule.
                self._file.write(line[: max(1, len(line) // 2)])
                self._file.flush()
                self._failed = True
                raise InjectedFault("journal.torn")
            maybe_fail("journal.append")
            self._file.write(line + "\n")
            self._file.flush()
            self._metric_appends.increment()
            if self.sync_policy == "always":
                self._fsync()

    def commit(self) -> None:
        """Mark the open transaction committed and make it durable."""
        if self._open_txn is None:
            raise JournalError("no open journal transaction to commit")
        if self._failed:
            raise JournalError(
                "journal failed mid-write; the open transaction cannot "
                "commit (recovery will discard it)"
            )
        self._write({"type": "commit", "txn": self._open_txn})
        self._open_txn = None
        self._sync_if("always", "commit")
        self._metric_commits.increment()

    def rollback(self) -> None:
        """Mark the open transaction rolled back (replay will skip it).

        After a failed write no marker is appended — the file must end
        at the torn bytes for the discard rule to apply, and an
        unresolved transaction is discarded by recovery anyway.
        """
        if self._open_txn is None:
            return
        txn = self._open_txn
        self._open_txn = None
        if not self._failed:
            self._write({"type": "rollback", "txn": txn})
            self._sync_if("always")
        self._metric_rollbacks.increment()

    def close(self) -> None:
        """Flush and close the journal file."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()

    def _sync_if(self, *policies: str) -> None:
        if self.sync_policy in policies:
            self._fsync()

    def _fsync(self) -> None:
        with instrument("journal.fsync", sync=self.sync_policy):
            os.fsync(self._file.fileno())
        self._metric_syncs.increment()

    def _require_base(self) -> None:
        if not self._has_base:
            raise JournalError(
                "journal has no base record; call write_base first"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Journal {self.path!r} sync={self.sync_policy}>"


# ----------------------------------------------------------------------
# Reading and recovery
# ----------------------------------------------------------------------

def _truncate_torn_tail(path) -> None:
    """Drop a torn final line, cutting the file back to the last newline."""
    with open(path, "rb") as handle:
        data = handle.read()
    keep = data.rfind(b"\n") + 1  # 0 when no complete record survives
    if keep < len(data):
        os.truncate(path, keep)


#: Public alias: the page-file backend reattaches its directory log with
#: the exact same discard rule the journal uses.
truncate_torn_tail = _truncate_torn_tail


def read_journal(path) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a journal file into records; tolerate one torn tail line.

    Returns ``(records, torn_tail)``.  A final line missing its newline
    terminator is a torn write and is discarded (``torn_tail`` True);
    corruption anywhere else raises :class:`~repro.errors.JournalError`.
    """
    with open(path, encoding="utf-8") as handle:
        data = handle.read()
    lines = data.splitlines()
    torn_tail = bool(data) and not data.endswith("\n")
    if torn_tail:
        lines = lines[:-1]
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise JournalError(
                f"corrupt journal record at line {number}: {error}"
            ) from None
        if not isinstance(record, dict) or "type" not in record:
            raise JournalError(f"malformed journal record at line {number}")
        records.append(record)
    return records, torn_tail


@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover` rebuilt, and what it had to discard."""

    ldoc: LabeledDocument
    name: str
    scheme_name: str
    transactions_applied: int
    operations_applied: int
    transactions_discarded: int
    torn_tail: bool


def recover(path) -> RecoveryResult:
    """Replay a journal into the exact last-committed document state.

    Restores the base snapshot (scheme configuration and label bits
    included), then replays every committed transaction's operations in
    order through the normal update surface.  Uncommitted or
    rolled-back transactions are discarded whole, so the result is
    always a commit boundary: the base state, or the state after some
    prefix of the committed transactions — never a half-applied update.
    """
    registry = get_registry()
    registry.counter("durability.recoveries").increment()
    with instrument("journal.recover") as event:
        records, torn_tail = read_journal(path)
        if not records or records[0]["type"] != "base":
            raise RecoveryError(
                f"journal {os.fspath(path)!r} has no base record"
            )
        base = records[0]
        try:
            snapshot = Snapshot(
                name=base["name"],
                scheme_name=base["scheme"],
                xml=base["xml"],
                label_stream=bytes.fromhex(base["labels"]),
                scheme_config=dict(base.get("config", {})),
            )
            ldoc = restore_snapshot(
                snapshot, on_collision=base.get("on_collision", "raise")
            )
        except (KeyError, ValueError, StorageError) as error:
            raise RecoveryError(f"unusable base record: {error}") from None

        pending: Dict[int, List[Operation]] = {}
        applied = operations = discarded = discarded_ops = 0
        for record in records[1:]:
            kind = record["type"]
            txn = int(record.get("txn", -1))
            if kind == "begin":
                pending[txn] = []
            elif kind == "op":
                pending.setdefault(txn, []).append(
                    Operation.from_dict(record)
                )
            elif kind == "commit":
                for operation in pending.pop(txn, []):
                    dispatch_operation(ldoc.updates, ldoc, operation)
                    operations += 1
                applied += 1
            elif kind == "rollback":
                discarded_ops += len(pending.pop(txn, []))
                discarded += 1
            else:
                raise RecoveryError(f"unknown journal record type {kind!r}")
        discarded += len(pending)  # begun but never resolved: crash victims
        discarded_ops += sum(len(ops) for ops in pending.values())
        # The append path already counts every written record; recovery
        # publishes the symmetric read-side accounting.
        registry.counter(
            "durability.recover.records_replayed"
        ).increment(operations)
        registry.counter(
            "durability.recover.records_discarded"
        ).increment(discarded_ops)
        event.set(nodes=operations, document=base["name"],
                  scheme=base["scheme"], transactions_applied=applied,
                  records_discarded=discarded_ops, torn_tail=torn_tail)

    return RecoveryResult(
        ldoc=ldoc,
        name=base["name"],
        scheme_name=base["scheme"],
        transactions_applied=applied,
        operations_applied=operations,
        transactions_discarded=discarded,
        torn_tail=torn_tail,
    )
