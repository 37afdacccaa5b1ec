"""Atomic update transactions: undo records and rollback.

The paper grades labelling schemes on whether labels *survive* updates;
that grading presumes the update itself either happens or does not.
Before this layer, an exception inside an
:class:`~repro.updates.batch.UpdateBatch` abandoned the batch and left
the document half-mutated and partially unlabelled — exactly the corrupt
intermediate state an "XML repository in mainstream industry" must never
expose.  This module makes every update path atomic:

* :class:`UndoRecord` is a savepoint in the document's undo log.  While
  any record is open, every label and label-index write, tree attach and
  detach, content update and whole-map relabelling appends its inverse
  to the log, so opening a record costs O(1) and rolling it back costs
  what changed since, not the size of the document.
* :class:`Transaction` is the ``with`` layer over an undo record: clean
  exit commits, an exception rolls the document back completely.  Given
  a :class:`~repro.durability.journal.Journal` it also write-ahead-logs
  every operation issued through it, so a committed transaction survives
  a process crash via journal replay.

Rollback replays the log newest first through the tree's own
``insert_child``/``remove_child``, putting back the very node objects
that were removed: node references held across a rollback stay valid
(nodes created inside the scope are detached again), and delta
subscribers such as the axis accelerator receive the inverse
``insert``/``delete``/``rename`` deltas and splice instead of
rebuilding.  Node ids
are never rewound, so ids stay unique across rollbacks.  A batch opened
inside a transaction rolls back only to its own savepoint; committing
the outermost scope drops the log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.durability.faults import maybe_fail
from repro.errors import TransactionError, UpdateError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.updates.operations import (
    OpKind,
    Operation,
    dispatch_operation,
    element_position,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.journal import Journal
    from repro.updates.document import LabeledDocument
    from repro.updates.results import UpdateResult
    from repro.xmlmodel.tree import XMLNode

#: The UpdateLog counters an undo record restores.
_LOG_FIELDS = (
    "insertions", "deletions", "content_updates", "relabeled_nodes",
    "relabel_events", "overflow_events", "collisions",
)


class UndoRecord:
    """A savepoint in one :class:`LabeledDocument`'s undo log.

    Capture is O(1): the record marks the current end of the log and
    saves the seven restorable :class:`~repro.updates.document.UpdateLog`
    counters and ``last_batch_result`` by value.  :meth:`rollback`
    undoes every change logged since, onto the *same* document and node
    objects and bumps the document's ``rollbacks`` counter (which
    versions the repository indexes), closing the record and any record
    opened after it; :meth:`release` keeps the changes and closes the
    record alone.
    """

    def __init__(self, ldoc: "LabeledDocument"):
        self._ldoc = ldoc
        ldoc._open_undo_scope(self)
        self._counters = {
            name: getattr(ldoc.log, name) for name in _LOG_FIELDS
        }
        self._last_batch_result = ldoc.last_batch_result

    def rollback(self) -> None:
        """Undo every change since the capture, in place, and close.

        A no-op once the record is closed: released, or rolled back —
        directly or by a record opened before it.
        """
        ldoc = self._ldoc
        if not ldoc._close_undo_scope(self, rollback=True):
            return
        for name, value in self._counters.items():
            setattr(ldoc.log, name, value)
        ldoc.last_batch_result = self._last_batch_result
        # The rollback itself is observable: it versions the secondary
        # indexes (their refresh stamp includes it).
        ldoc.log.record("rollbacks")

    def release(self) -> None:
        """Keep every change since the capture and close the record."""
        self._ldoc._close_undo_scope(self, rollback=False)


class Transaction:
    """Atomic scope over one document's updates, with optional journal.

    ::

        with ldoc.transaction() as txn:
            txn.append_child(parent, "entry")   # journalable surface
            ldoc.updates.delete(stale)          # direct calls roll back too
        # clean exit == committed; any exception == fully rolled back

    The update methods on the transaction mirror the element-targeted
    subset of ``ldoc.updates``; they additionally serialise each call as
    a declarative :class:`~repro.updates.operations.Operation` and
    append it to the journal *before* applying it (write-ahead), so a
    committed transaction is reproducible by replay.  Updates made by
    calling the document directly inside the scope are covered by
    rollback but — carrying no declarative form — are invisible to the
    journal; journalled documents should route every update through the
    transaction surface.
    """

    def __init__(self, ldoc: "LabeledDocument",
                 journal: Optional["Journal"] = None):
        self._ldoc = ldoc
        self._journal = journal
        self._undo: Optional[UndoRecord] = None
        self._state = "idle"
        registry = get_registry()
        self._metric_commits = registry.counter("durability.commits")
        self._metric_rollbacks = registry.counter("durability.rollbacks")

    # -- lifecycle -------------------------------------------------------

    @property
    def state(self) -> str:
        """``idle``, ``active``, ``committed`` or ``rolled-back``."""
        return self._state

    def __enter__(self) -> "Transaction":
        self.begin()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.rollback()
        elif self._state == "active":
            # Commit can refuse before reaching its own rollback-wrapped
            # section (e.g. a batch still open).  On the clean-exit path
            # nobody is left to resolve the scope, so the error must
            # still leave the document decided: rolled back.
            try:
                self.commit()
            except Exception:
                self.rollback()
                raise

    def begin(self) -> None:
        """Capture the undo record and open the journal transaction."""
        if self._state != "idle":
            raise TransactionError(f"transaction already {self._state}")
        ldoc = self._ldoc
        if ldoc._active_txn is not None:
            raise TransactionError("document already has an open transaction")
        if ldoc._active_batch is not None:
            raise TransactionError(
                "cannot open a transaction while a batch is open"
            )
        get_registry().counter("durability.transactions").increment()
        self._undo = UndoRecord(ldoc)
        ldoc._active_txn = self
        if self._journal is not None:
            self._journal.begin()
        self._state = "active"

    def commit(self) -> None:
        """Make the transaction's effects durable and close the scope.

        Commit is itself a crash point: if the commit marker cannot be
        journalled (or an injected fault fires first), the transaction
        rolls back before the error propagates — the caller never sees a
        document whose durability is undecided.
        """
        self._require_active()
        ldoc = self._ldoc
        if ldoc._active_batch is not None:
            # Its later rollback would undo work this commit made durable.
            raise TransactionError(
                "cannot commit while a batch is open; apply or roll it "
                "back first"
            )
        with instrument("transaction.commit",
                        scheme=ldoc.scheme.metadata.name,
                        journaled=self._journal is not None):
            try:
                maybe_fail("transaction.commit")
                if self._journal is not None:
                    self._journal.commit()
            except Exception:
                self.rollback()
                raise
            self._state = "committed"
            self._undo.release()
            self._undo = None
            ldoc._active_txn = None
            self._metric_commits.increment()

    def rollback(self) -> None:
        """Restore the document to its pre-transaction state."""
        if self._state != "active":
            return
        ldoc = self._ldoc
        with instrument("transaction.rollback",
                        scheme=ldoc.scheme.metadata.name,
                        journaled=self._journal is not None) as event:
            event.set(outcome="rollback")
            # A batch opened inside the scope and still live at rollback
            # time is subsumed: its savepoint lies after this one, and the
            # replay closes it.  Close the batch object too, so a caller
            # still holding it cannot keep mutating the rolled-back
            # document as if its operations had survived.
            if ldoc._active_batch is not None:
                ldoc._active_batch._close()
            self._undo.rollback()
            self._undo = None
            if self._journal is not None:
                self._journal.rollback()
            self._state = "rolled-back"
            ldoc._active_txn = None
            self._metric_rollbacks.increment()

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(
                f"transaction is {self._state}, not active"
            )

    # -- the journalable update surface ----------------------------------

    def apply(self, operation: Operation) -> Optional["UpdateResult"]:
        """Journal one declarative operation, then apply it.

        Refused while a batch is open: the batch's rollback would undo
        an operation the journal already holds.
        """
        self._require_active()
        if self._ldoc._active_batch is not None:
            raise TransactionError(
                "cannot journal an operation while a batch is open; apply "
                "or roll it back first"
            )
        if self._journal is not None:
            self._journal.append(operation)
        return dispatch_operation(self._ldoc.updates, self._ldoc, operation)

    def insert_before(self, reference: "XMLNode",
                      name: str) -> Optional["UpdateResult"]:
        """Insert a new element immediately before ``reference``."""
        return self.apply(Operation(
            kind=OpKind.INSERT_BEFORE,
            target=self._position(reference, exclude_root=True), name=name,
        ))

    def insert_after(self, reference: "XMLNode",
                     name: str) -> Optional["UpdateResult"]:
        """Insert a new element immediately after ``reference``."""
        return self.apply(Operation(
            kind=OpKind.INSERT_AFTER,
            target=self._position(reference, exclude_root=True), name=name,
        ))

    def append_child(self, parent: "XMLNode",
                     name: str) -> Optional["UpdateResult"]:
        """Insert a new element as the last child of ``parent``."""
        return self.apply(Operation(
            kind=OpKind.APPEND_CHILD, target=self._position(parent),
            name=name,
        ))

    def prepend_child(self, parent: "XMLNode",
                      name: str) -> Optional["UpdateResult"]:
        """Insert a new element as the first content child of ``parent``."""
        return self.apply(Operation(
            kind=OpKind.PREPEND_CHILD, target=self._position(parent),
            name=name,
        ))

    def delete(self, node: "XMLNode") -> Optional["UpdateResult"]:
        """Remove ``node`` and its subtree."""
        return self.apply(Operation(
            kind=OpKind.DELETE,
            target=self._position(node, exclude_root=True),
        ))

    def set_text(self, element: "XMLNode",
                 text: str) -> Optional["UpdateResult"]:
        """Replace an element's text content."""
        return self.apply(Operation(
            kind=OpKind.SET_TEXT, target=self._position(element), text=text,
        ))

    def rename(self, node: "XMLNode", name: str) -> Optional["UpdateResult"]:
        """Rename an element."""
        return self.apply(Operation(
            kind=OpKind.RENAME, target=self._position(node), name=name,
        ))

    def _position(self, node: "XMLNode", exclude_root: bool = False) -> int:
        try:
            return element_position(self._ldoc, node,
                                    exclude_root=exclude_root)
        except UpdateError as error:
            raise TransactionError(
                f"cannot journal this operation: {error}"
            ) from error
