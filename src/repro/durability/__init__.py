"""Durability: atomic transactions, write-ahead journalling, recovery.

The paper's evaluation framework grades whether labels *survive*
updates; this package guarantees the updates themselves survive the
process.  Three layers compose:

* :mod:`repro.durability.transactions` — :class:`Transaction` /
  :class:`UndoRecord`: every update scope either commits whole or rolls
  the document (tree, labels, label index, counters) back whole, by
  replaying the document's undo log to the scope's savepoint — capture
  is O(1), rollback O(change), and node references stay valid;
* :mod:`repro.durability.journal` — :class:`Journal` / :func:`recover`:
  committed transactions are write-ahead-logged as declarative
  operations over a base snapshot and replay to bit-identical labels
  after a crash;
* :mod:`repro.durability.faults` — :class:`FaultInjector`: the
  deterministic crash harness that proves the first two layers, point by
  point.
"""

from repro.durability.faults import (
    FaultInjector,
    InjectedFault,
    get_injector,
    maybe_fail,
)
from repro.durability.journal import (
    Journal,
    RecoveryResult,
    read_journal,
    recover,
)
from repro.durability.transactions import Transaction, UndoRecord

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "Journal",
    "RecoveryResult",
    "Transaction",
    "UndoRecord",
    "get_injector",
    "maybe_fail",
    "read_journal",
    "recover",
]
