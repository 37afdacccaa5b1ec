"""Transaction atomicity: commit keeps everything, rollback keeps nothing."""

from __future__ import annotations

import pytest

from conftest import all_scheme_names, labeled
from repro.durability.journal import Journal, recover
from repro.durability.transactions import Transaction, UndoRecord
from repro.errors import TransactionError
from repro.store.repository import open_repository
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize

SAMPLE = "<library><shelf><book/><book/></shelf><shelf><book/></shelf></library>"


def fingerprint(ldoc):
    """Serialised tree + formatted labels in document order."""
    return (
        serialize(ldoc.document),
        [ldoc.format_label(node) for node in ldoc.document.labeled_nodes()],
    )


class TestRollback:
    def test_exception_restores_document_and_labels(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        before = fingerprint(ldoc)
        with pytest.raises(RuntimeError):
            with ldoc.transaction() as txn:
                txn.append_child(ldoc.document.root, "annex")
                txn.delete(ldoc.document.root.element_children()[0])
                raise RuntimeError("mid-transaction failure")
        assert fingerprint(ldoc) == before
        ldoc.verify_order()

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    def test_rollback_is_exact_for_every_scheme(self, scheme_name):
        ldoc = labeled(parse(SAMPLE), scheme_name)
        before = fingerprint(ldoc)
        before_log = (ldoc.log.insertions, ldoc.log.deletions)
        with pytest.raises(RuntimeError):
            with ldoc.transaction() as txn:
                shelf = ldoc.document.root.element_children()[0]
                txn.insert_after(shelf, "shelf")
                txn.set_text(shelf.element_children()[0], "title")
                raise RuntimeError("boom")
        assert fingerprint(ldoc) == before
        assert (ldoc.log.insertions, ldoc.log.deletions) == before_log
        assert ldoc.log.rollbacks == 1

    def test_direct_document_updates_also_roll_back(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        before = fingerprint(ldoc)
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.append_child(ldoc.document.root, "direct")
                raise RuntimeError("boom")
        assert fingerprint(ldoc) == before

    def test_node_references_stay_valid_across_rollback(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        stale_root = ldoc.document.root
        held = list(ldoc.document.labeled_nodes())
        labels = [ldoc.label_of(node) for node in held]
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                first, second = stale_root.element_children()
                ldoc.updates.delete(first.element_children()[0])
                ldoc.updates.move(second, first, 0)
                ldoc.updates.insert_before(first, "front")
                raise RuntimeError("boom")
        # The undo log puts back the same node objects: nothing to
        # re-resolve, and every held node is labelled as before.
        assert ldoc.document.root is stale_root
        assert list(ldoc.document.labeled_nodes()) == held
        assert [ldoc.label_of(node) for node in held] == labels

    def test_subsumed_batch_is_closed_by_rollback(self):
        """Regression: rollback nulled ``_active_batch`` without closing
        the batch object, so a held reference could keep mutating the
        rolled-back document against stale node references."""
        from repro.errors import BatchError

        ldoc = labeled(parse(SAMPLE), "dewey")
        before = fingerprint(ldoc)
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                batch = ldoc.batch()
                batch.append_child(ldoc.document.root, "x")
                raise RuntimeError("boom")
        with pytest.raises(BatchError):
            batch.append_child(ldoc.document.root, "y")
        batch.rollback()  # a no-op now, not a second restore
        assert fingerprint(ldoc) == before
        ldoc.verify_order()

    def test_explicit_rollback_is_idempotent(self):
        ldoc = labeled(parse(SAMPLE), "cdqs")
        txn = Transaction(ldoc)
        txn.begin()
        txn.append_child(ldoc.document.root, "x")
        txn.rollback()
        txn.rollback()
        assert txn.state == "rolled-back"
        assert ldoc._active_txn is None


class TestCommit:
    def test_clean_exit_commits(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        with ldoc.transaction() as txn:
            txn.append_child(ldoc.document.root, "annex")
        assert txn.state == "committed"
        names = [n.name for n in ldoc.document.root.element_children()]
        assert names[-1] == "annex"
        ldoc.verify_order()

    def test_committed_work_survives_later_rollback_scope(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        with ldoc.transaction() as txn:
            txn.append_child(ldoc.document.root, "kept")
        after_commit = fingerprint(ldoc)
        with pytest.raises(RuntimeError):
            with ldoc.transaction() as txn:
                txn.append_child(ldoc.document.root, "lost")
                raise RuntimeError("boom")
        assert fingerprint(ldoc) == after_commit

    def test_commit_requires_active_state(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        txn = Transaction(ldoc)
        with pytest.raises(TransactionError):
            txn.commit()

    def test_clean_exit_with_pending_batch_rolls_back(self):
        """Regression: commit's pending-batch refusal used to escape the
        clean-exit path with the transaction still 'active', keeping the
        in-scope mutations and blocking every later transaction."""
        ldoc = labeled(parse(SAMPLE), "dewey")
        before = fingerprint(ldoc)
        with pytest.raises(TransactionError):
            with ldoc.transaction():
                batch = ldoc.batch()
                shelf = ldoc.document.root.element_children()[0]
                batch.insert_before(shelf, "annex")  # deferred label
        assert fingerprint(ldoc) == before
        assert ldoc._active_txn is None
        assert ldoc._active_batch is None
        with ldoc.transaction() as txn:  # the document is usable again
            txn.append_child(ldoc.document.root, "ok")
        ldoc.verify_order()

    def test_commit_refuses_while_a_batch_is_open(self, tmp_path):
        """Regression: commit refused only a batch with *pending* labels.

        With a batch holding just a content update, the journaled append
        below committed; the batch's later rollback then removed it from
        the live document while ``recover()`` still replayed it.  Now
        every step that would split the two is refused.
        """
        ldoc = labeled(parse(SAMPLE), "qed")
        path = tmp_path / "lib.journal"
        journal = Journal.create(path, ldoc, name="lib")
        root = ldoc.document.root
        txn = ldoc.transaction(journal=journal)
        txn.begin()
        batch = ldoc.batch()
        batch.set_text(root.element_children()[0], "note")
        # The batch's rollback would undo a journaled operation.
        with pytest.raises(TransactionError):
            txn.append_child(root, "journaled")
        with pytest.raises(TransactionError):
            txn.commit()
        batch.rollback()
        txn.append_child(root, "journaled")
        txn.commit()
        journal.close()
        assert root.element_children()[-1].name == "journaled"
        assert fingerprint(recover(path).ldoc) == fingerprint(ldoc)

    def test_clean_exit_with_open_batch_rolls_back(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        before = fingerprint(ldoc)
        with pytest.raises(TransactionError):
            with ldoc.transaction():
                ldoc.updates.append_child(ldoc.document.root, "direct")
                batch = ldoc.batch()
                batch.set_text(ldoc.document.root.element_children()[0],
                               "note")  # applied at once: nothing pending
        assert fingerprint(ldoc) == before
        assert ldoc._active_txn is None
        assert ldoc._active_batch is None


class TestGuards:
    def test_no_nested_transactions(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        with ldoc.transaction():
            with pytest.raises(TransactionError):
                ldoc.transaction().begin()

    def test_no_transaction_over_open_batch(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        batch = ldoc.batch()
        try:
            with pytest.raises(TransactionError):
                ldoc.transaction().begin()
        finally:
            batch.rollback()

    def test_unaddressable_node_raises_transaction_error(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        with pytest.raises(TransactionError):
            with ldoc.transaction() as txn:
                txn.delete(ldoc.document.root)  # root is not deletable


class TestRepositoryTransactions:
    def test_repository_scope_commits(self):
        repo = open_repository("memory://")
        repo.add("lib", SAMPLE, scheme="cdqs")
        stored = repo.get("lib")
        with repo.transaction("lib") as txn:
            txn.append_child(stored.ldoc.document.root, "annex")
        assert len(stored.find("annex")) == 1

    def test_repository_rollback_refreshes_indexes(self):
        """A rollback leaves the name index answering with live nodes.

        A rollback puts back the very node objects it removed, so the
        books an index found before the transaction are the live books
        after it.  The hazard the stamp's monotonic ``rollbacks``
        counter guards is an index built *inside* the transaction: see
        the next test.
        """
        repo = open_repository("memory://")
        repo.add("lib", SAMPLE, scheme="cdqs")
        stored = repo.get("lib")
        assert len(stored.find("book")) == 3  # build the index
        with pytest.raises(RuntimeError):
            with repo.transaction("lib") as txn:
                txn.append_child(stored.ldoc.document.root, "annex")
                raise RuntimeError("boom")
        live_books = stored.find("book")
        assert len(live_books) == 3
        live_ids = {id(node) for node in live_books}
        current_ids = {
            id(node)
            for node in stored.ldoc.document.labeled_nodes()
            if node.name == "book"
        }
        assert live_ids <= current_ids

    def test_index_built_inside_rolled_back_transaction_is_rebuilt(self):
        """Regression: rolled-back counters must not revive an index.

        The index is built after an insert inside the transaction, so
        it holds the inserted node.  The rollback detaches that node and
        restores the update-log counters; a later insert moves them back
        to the values the index was stamped with.  Only the monotonic
        ``rollbacks`` counter in the stamp tells the two states apart.
        """
        repo = open_repository("memory://")
        repo.add("lib", SAMPLE, scheme="cdqs")
        stored = repo.get("lib")
        root = stored.ldoc.document.root
        with pytest.raises(RuntimeError):
            with repo.transaction("lib") as txn:
                txn.append_child(root, "annex")
                (doomed,) = stored.find("annex")  # built mid-transaction
                raise RuntimeError("boom")
        assert doomed.parent is None
        with repo.transaction("lib") as txn:
            txn.append_child(root, "annex")
        (annex,) = stored.find("annex")
        assert annex is not doomed
        assert annex.parent is root


class TestUndoRecord:
    def test_manual_capture_and_rollback(self):
        ldoc = labeled(parse(SAMPLE), "dewey")
        before = fingerprint(ldoc)
        undo = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "x")
        ldoc.updates.append_child(ldoc.document.root, "y")
        undo.rollback()
        assert fingerprint(ldoc) == before
        ldoc.verify_order()

    def test_capture_is_a_savepoint_and_release_drops_the_log(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        outer = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "kept")
        kept = fingerprint(ldoc)
        inner = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "undone")
        inner.rollback()  # back to the inner savepoint only
        assert fingerprint(ldoc) == kept
        assert ldoc._undo_log is not None  # the outer record is open
        outer.release()
        assert ldoc._undo_log is None and ldoc.document._undo_log is None
        outer.rollback()  # closed: nothing left to undo
        assert fingerprint(ldoc) == kept
        assert ldoc.log.rollbacks == 1

    def test_outer_rollback_closes_inner_records(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        before = fingerprint(ldoc)
        outer = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "first")
        inner = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "second")
        outer.rollback()
        inner.rollback()  # already undone by the outer rollback
        assert fingerprint(ldoc) == before
        assert ldoc._undo_log is None
        ldoc.verify_order()

    def test_releasing_an_outer_record_keeps_inner_savepoints(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        outer = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "kept")
        kept = fingerprint(ldoc)
        inner = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "undone")
        outer.release()
        inner.rollback()
        assert fingerprint(ldoc) == kept
        assert ldoc._undo_log is None

    def test_new_node_ids_do_not_collide_after_rollback(self):
        ldoc = labeled(parse(SAMPLE), "qed")
        undo = UndoRecord(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "x")
        undo.rollback()
        result = ldoc.updates.append_child(ldoc.document.root, "z")
        ids = [node.node_id for node in ldoc.document.all_nodes()]
        assert len(ids) == len(set(ids))
        assert result.node.node_id in ids
