"""Undo-log rollback against the clone-capture reference.

:class:`CloneUndoRecord` is the reference undo record: it clones the
whole tree and copies the label map, label index and update-log
counters at capture.  Its cost grows with the document, not the change,
but it is trivially right, so it serves as the oracle: a random program
is run on each of the 17 schemes, through the per-operation surface,
the transaction surface or a batch inside a transaction, and ends in an
exception or an injected crash.  Whatever the path, the state the undo
log rolls back to must be the state the clone captured.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import COLLIDING_SCHEMES, all_scheme_names, labeled
from repro.durability.faults import InjectedFault, get_injector
from repro.errors import ReproError
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from update_programs import DOCUMENT_XML, programs, run_program

#: The UpdateLog counters a rollback restores.
RESTORED_COUNTERS = (
    "insertions", "deletions", "content_updates", "relabeled_nodes",
    "relabel_events", "overflow_events", "collisions",
)

SURFACES = ("per-op", "transaction", "batch")

#: ``None`` ends the program with an exception; otherwise a crash point
#: is armed at one of the probes a program can reach (the commit and the
#: consolidated relabel probe once per scope, the others per node) and
#: fires if the program gets there.
endings = st.one_of(
    st.none(),
    st.sampled_from([("transaction.commit", 1), ("batch.relabel", 1)]),
    st.tuples(st.sampled_from(["document.relabel", "batch.operation"]),
              st.integers(1, 4)),
)

ORACLE_SETTINGS = settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class CloneUndoRecord:
    """The clone-capture undo record: O(document) capture and restore."""

    def __init__(self, ldoc):
        self._ldoc = ldoc
        self.tree = ldoc.document.clone()
        self.next_id = max(
            (node.node_id for node in ldoc.document.all_nodes()), default=-1
        ) + 1
        self.labels = dict(ldoc.labels)
        self.index = dict(ldoc._label_index)
        self.counters = {name: getattr(ldoc.log, name)
                         for name in RESTORED_COUNTERS}
        self.last_batch_result = ldoc.last_batch_result

    def rollback(self) -> None:
        """Install the captured clone and copies as the live state."""
        ldoc = self._ldoc
        document = ldoc.document
        root = self.tree.root
        for node in root.preorder():
            node.document = document
        document.root = root
        document._next_id = itertools.count(self.next_id)
        ldoc.labels = dict(self.labels)
        ldoc._label_index = dict(self.index)
        for name, value in self.counters.items():
            setattr(ldoc.log, name, value)
        ldoc.last_batch_result = self.last_batch_result
        document.note_structural_change()
        # Every node object was swapped, so the document's index orders
        # a dead tree: drop it, and the next query builds a new one.
        if ldoc._accelerator is not None:
            ldoc.unsubscribe_deltas(ldoc._accelerator)
            ldoc._accelerator = None


class Abort(Exception):
    """The exception a program ends with."""


def state(ldoc):
    """Everything a rollback restores, as comparable values."""
    document = ldoc.document
    return (
        serialize(document),
        [node.node_id for node in document.labeled_nodes()],
        ldoc.labels_in_document_order(),
        dict(ldoc.labels),
        dict(ldoc._label_index),
        {name: getattr(ldoc.log, name) for name in RESTORED_COUNTERS},
        ldoc.last_batch_result,
    )


def assert_restored(ldoc, oracle: CloneUndoRecord) -> None:
    """The live state equals the oracle's capture, and is sound."""
    live = state(ldoc)
    oracle_labels = [oracle.labels[node.node_id]
                     for node in oracle.tree.labeled_nodes()]
    assert live[0] == serialize(oracle.tree)
    assert live[1] == [node.node_id for node in oracle.tree.labeled_nodes()]
    assert live[2] == oracle_labels
    assert live[3] == oracle.labels
    assert live[4] == oracle.index
    assert live[5] == oracle.counters
    assert live[6] is oracle.last_batch_result
    if not ldoc.log.collisions:  # LSDX/COMD may hold recorded duplicates
        ldoc.verify_order()
    ldoc.document.validate()


def run_scoped(ldoc, surface: str, program, abort: bool) -> None:
    """Run ``program`` inside a transaction through ``surface``."""
    with ldoc.transaction() as txn:
        if surface == "batch":
            half = len(program) // 2
            run_program(ldoc, ldoc.updates, program[:half])
            with ldoc.batch() as batch:
                run_program(ldoc, batch, program[half:], start=half)
                if abort:
                    raise Abort()
            return
        run_program(ldoc, txn if surface == "transaction" else ldoc.updates,
                    program)
        if abort:
            raise Abort()


@pytest.mark.parametrize("scheme_name", all_scheme_names())
@ORACLE_SETTINGS
@given(surface=st.sampled_from(SURFACES), program=programs(), ending=endings)
def test_rollback_matches_clone_oracle(scheme_name, surface, program,
                                       ending):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    oracle = CloneUndoRecord(ldoc)
    injector = get_injector()
    injector.reset()
    if ending is not None:
        injector.arm(ending[0], at=ending[1])
    try:
        run_scoped(ldoc, surface, program, abort=ending is None)
    except (Abort, InjectedFault, ReproError):
        assert ldoc._active_txn is None and ldoc._active_batch is None
        assert ldoc._undo_log is None and ldoc.document._undo_log is None
        assert ldoc.log.rollbacks >= 1
        assert_restored(ldoc, oracle)
        # The reference rollback, applied on top, finds nothing to change.
        restored = state(ldoc)
        oracle.rollback()
        assert state(ldoc) == restored
        return
    finally:
        injector.reset()
    # Only an armed probe the program never reached lets it commit.
    assert ending is not None and ending != ("transaction.commit", 1)
    assert ldoc._undo_log is None
    ldoc.document.validate()


@ORACLE_SETTINGS
@given(scheme_name=st.sampled_from(all_scheme_names()),
       before=programs(max_size=4), inside=programs(max_size=6),
       after=programs(max_size=4))
def test_batch_rolls_back_only_to_its_savepoint(scheme_name, before, inside,
                                                after):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    try:
        with ldoc.transaction():
            run_program(ldoc, ldoc.updates, before)
            at_batch = CloneUndoRecord(ldoc)
            with pytest.raises((Abort, ReproError)):
                with ldoc.batch() as batch:
                    run_program(ldoc, batch, inside, start=len(before))
                    raise Abort()
            assert ldoc._active_txn is not None  # the transaction lives on
            assert_restored(ldoc, at_batch)
            run_program(ldoc, ldoc.updates, after,
                        start=len(before) + len(inside))
    except ReproError:
        return  # a step outside the batch failed; the oracle test covers it
    assert ldoc._undo_log is None  # the commit dropped the log
    ldoc.document.validate()
    if scheme_name not in COLLIDING_SCHEMES:
        ldoc.verify_order()
