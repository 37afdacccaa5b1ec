"""Incremental SQLite checkpoints: stable node keys and put-time row diffs.

A put of a live document writes only the node rows that differ from
the ones its last put wrote; rows are keyed by node keys that an insert
never renumbers.  The tests here hold that design to its claims:

* the full write is the oracle: after any random interleaving of
  updates, batches, transactions (committed or rolled back), text-node
  deletes and moves, persists and reopens, the node table equals a full
  write of the same document, and a reopened store answers point
  queries and ``get`` exactly as the persisted document would;
* the rows a persist writes do not depend on document size for the
  persistent schemes, and follow the relabel extent for the others;
* files written with dense ordinals, as every full write still writes
  them, need no migration;
* a put inside a scope later rolled back is repaired by the next put;
* ``persist`` refuses while a transaction or a batch is open;
* the per-codec byte-order fact behind ``ORDER BY label`` holds.
"""

from __future__ import annotations

import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from update_programs import (
    DOCUMENT_XML,
    STRUCTURAL_KINDS,
    _content_index,
    programs,
    run_program,
    run_step,
)

from repro.encoding.codec import codec_for, supported_codec_schemes
from repro.errors import BatchError, ReproError, TransactionError
from repro.schemes.registry import make_scheme
from repro.store import open_repository
from repro.store.backends import SQLiteBackend, backend_for_url, node_records
from repro.store.backends.base import named_node_records
from repro.store.snapshots import restore_snapshot, snapshot_document
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import xmark_document

#: Codecs whose single-label bytes sort in document order.
BYTE_ORDERED = {"cdqs", "prepost", "qed", "qrs", "sector", "xrel"}

ORACLE_SCHEMES = ("qed", "cdqs", "dewey", "ordpath", "prepost")

ORACLE_SETTINGS = settings(
    max_examples=15, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def sqlite_url(directory) -> str:
    return f"sqlite:///{directory}/store.db"


def table_rows(conn: sqlite3.Connection, name: str):
    """The document's node table as a sorted multiset of
    ``(label bytes, parent's label bytes, kind, name, value)``."""
    rows = conn.execute(
        "SELECT n.label, p.label, n.kind, n.name, n.value FROM nodes n "
        "JOIN documents d ON d.doc_id = n.doc_id "
        "LEFT JOIN nodes p ON p.doc_id = n.doc_id AND p.ord = n.parent_ord "
        "WHERE d.name = ?", (name,),
    ).fetchall()
    return sorted(
        (bytes(label), b"" if parent is None else bytes(parent),
         kind, node_name, value)
        for label, parent, kind, node_name, value in rows
    )


def full_write_rows(ldoc: LabeledDocument, name: str):
    """The oracle: the rows a full write of ``ldoc`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as directory:
        backend = backend_for_url(sqlite_url(directory)).open()
        try:
            backend.put(snapshot_document(ldoc, name), ldoc)
            return table_rows(backend._conn, name)
        finally:
            backend.close()


def record_fields(records):
    return [(r.kind, r.name, r.value, r.label) for r in records]


def assert_reopened_equal(repository, name: str, persisted) -> None:
    """A cold store answers as the document it last persisted."""
    expected = restore_snapshot(persisted)
    names = sorted({node.name for node in expected.document.labeled_nodes()})
    for node_name in names:
        assert record_fields(repository.point_query(name, node_name)) \
            == record_fields(named_node_records(expected, node_name)), \
            node_name
    assert repository.live_names() == []
    reloaded = snapshot_document(repository.get(name).ldoc, name)
    assert reloaded.xml == persisted.xml
    assert reloaded.label_stream == persisted.label_stream


# ----------------------------------------------------------------------
# The full write as oracle
# ----------------------------------------------------------------------

_INDEX = st.integers(min_value=0, max_value=10**6)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("program"),
                  st.sampled_from(["updates", "batch", "transaction"]),
                  st.booleans(), programs(max_size=4)),
        st.tuples(st.just("text"), st.sampled_from(["delete", "move"]),
                  _INDEX, _INDEX),
        st.just(("persist",)),
        st.just(("reopen",)),
    ),
    min_size=1, max_size=10,
)


def run_scope(ldoc, surface: str, commit: bool, program, start: int) -> None:
    """One program through one surface; a batch or transaction ends
    committed (applied) or rolled back."""
    if surface == "updates":
        run_program(ldoc, ldoc.updates, program, start)
    elif surface == "batch":
        batch = ldoc.batch()
        run_program(ldoc, batch, program, start)
        if commit:
            batch.apply()
        else:
            batch.rollback()
    else:
        txn = ldoc.transaction()
        txn.begin()
        run_program(ldoc, txn, program, start)
        if commit:
            txn.commit()
        else:
            txn.rollback()


def text_step(ldoc, action: str, a: int, b: int) -> None:
    """Delete a text node, or move it under another element."""
    texts = [node for node in ldoc.document.all_nodes() if node.is_text]
    if not texts:
        return
    text = texts[a % len(texts)]
    if action == "delete":
        ldoc.updates.delete(text)
        return
    elements = [node for node in ldoc.document.all_nodes()
                if node.is_element]
    parent = elements[b % len(elements)]
    ldoc.updates.move(text, parent,
                      _content_index(parent, b // 7, moving=text))


@pytest.mark.parametrize("scheme_name", ORACLE_SCHEMES)
@ORACLE_SETTINGS
@given(steps=STEPS)
def test_random_interleavings_match_a_full_write(scheme_name, steps):
    with tempfile.TemporaryDirectory() as directory:
        url = sqlite_url(directory)
        repository = open_repository(url)
        try:
            ldoc = repository.add("doc", DOCUMENT_XML,
                                  scheme=scheme_name).ldoc
            persisted = repository.snapshot("doc")
            serial = 0
            for step in steps + [("persist",), ("reopen",)]:
                kind = step[0]
                if kind == "program":
                    _kind, surface, commit, program = step
                    run_scope(ldoc, surface, commit, program, serial)
                    serial += len(program)
                elif kind == "text":
                    text_step(ldoc, *step[1:])
                elif kind == "persist":
                    persisted = repository.persist("doc")
                    assert table_rows(repository.backend._conn, "doc") \
                        == full_write_rows(ldoc, "doc")
                else:
                    repository.close()
                    repository = open_repository(url)
                    assert_reopened_equal(repository, "doc", persisted)
                    ldoc = repository.get("doc").ldoc
        finally:
            repository.close()


# ----------------------------------------------------------------------
# Rows per persist: a count, so a hard gate
# ----------------------------------------------------------------------

def changed_nodes(*results) -> int:
    """Labelled nodes the results inserted, relabelled or detached."""
    return sum(result.labels_assigned + result.relabeled_nodes
               + result.nodes_detached for result in results)


def checkpoint_rows(directory, xml: str, scheme_name: str):
    """``(node rows written, changed nodes)`` per persist of a bid, a
    retraction, an attribute-value update and an idle checkpoint."""
    with open_repository(sqlite_url(directory)) as repository:
        ldoc = repository.add("auction", xml, scheme=scheme_name).ldoc
        conn = repository.backend._conn

        def persist() -> int:
            before = conn.total_changes
            repository.persist("auction")
            # Less the documents row, deleted and re-inserted.
            return conn.total_changes - before - 2

        auction = next(
            node for node in ldoc.document.labeled_nodes()
            if node.name == "open_auction"
            and any(child.name == "bidder" for child in node.children)
        )
        counts = []
        with repository.transaction("auction") as txn:
            bidder = txn.append_child(auction, "bidder")
            increase = txn.append_child(bidder.node, "increase")
            txn.set_text(increase.node, "9.00")
        counts.append((persist(), changed_nodes(bidder, increase)))
        with repository.transaction("auction") as txn:
            retracted = txn.delete(next(
                child for child in auction.children if child.name == "bidder"
            ))
        counts.append((persist(), changed_nodes(retracted)))
        ldoc.updates.set_attribute_value(auction.attribute("id"), "moved")
        counts.append((persist(), 1))
        counts.append((persist(), 0))
    return counts


class TestCheckpointRowCounts:
    """Rows per persist at XMark scale 1, 4 and 16 (~0.6k to ~9.7k
    labelled nodes).  A full rewrite would write about 2n rows each."""

    SCALES = (1, 4, 16)

    @pytest.fixture(scope="class")
    def corpus(self):
        return {scale: serialize(xmark_document(scale=scale, seed=11))
                for scale in self.SCALES}

    def counts(self, corpus, scheme_name, tmp_path):
        by_scale = {}
        for scale in self.SCALES:
            directory = tmp_path / f"scale{scale}"
            directory.mkdir()
            by_scale[scale] = checkpoint_rows(directory, corpus[scale],
                                              scheme_name)
        return by_scale

    @pytest.mark.parametrize("scheme_name",
                             ["qed", "cdqs", "ordpath", "vector"])
    def test_persistent_schemes_write_the_same_rows_at_every_scale(
            self, corpus, scheme_name, tmp_path):
        by_scale = self.counts(corpus, scheme_name, tmp_path)
        first = by_scale[self.SCALES[0]]
        assert all(counts == first for counts in by_scale.values()), by_scale
        for rows, changed in first:
            assert rows <= 3 * changed
        assert first[0][0] > 0
        assert first[-1] == (0, 0)

    @pytest.mark.parametrize("scheme_name", ["dewey", "prepost"])
    def test_relabelling_schemes_write_their_relabel_extent(
            self, corpus, scheme_name, tmp_path):
        for counts in self.counts(corpus, scheme_name, tmp_path).values():
            for rows, changed in counts:
                assert rows <= 3 * changed
            assert counts[-1] == (0, 0)


# ----------------------------------------------------------------------
# Full writes: the same routine with no rows written before
# ----------------------------------------------------------------------

class TestFullWrites:
    XML = "<a><b id='1'>x</b><c><d/></c><b>y</b></a>"

    def test_fresh_rows_number_nodes_in_document_order(self, tmp_path):
        """A full write stores exactly the dense-ordinal rows, values
        being attribute values and direct text, comments left out."""
        xml = "<a><b id='1'>x</b><c>p<d/>q<!--z-->r</c><b>y</b></a>"
        with open_repository(sqlite_url(tmp_path)) as repository:
            ldoc = repository.add("doc", xml, scheme="dewey").ldoc
            codec = codec_for(ldoc.scheme)
            rows = repository.backend._conn.execute(
                "SELECT ord, parent_ord, kind, name, value, label "
                "FROM nodes ORDER BY rowid").fetchall()
        assert rows == [
            (r.ordinal, r.parent_ordinal, r.kind, r.name, r.value,
             codec.encode_labels([r.label])[0])
            for r in node_records(ldoc)
        ]

    def test_new_nodes_take_the_next_key(self, tmp_path):
        with open_repository(sqlite_url(tmp_path)) as repository:
            ldoc = repository.add("doc", self.XML, scheme="qed").ldoc
            first = ldoc.document.root.children[0]
            ldoc.updates.insert_before(first, "new")
            repository.persist("doc")
            repository._live.clear()
            records = repository.point_query("doc", "new")
            b_records = repository.point_query("doc", "b")
        assert [r.ordinal for r in records] == [6]
        assert [r.ordinal for r in b_records] == [1, 5]
        assert records[0].parent_ordinal == 0

    def test_a_batch_relabelling_writes_the_relabelled_rows(self, tmp_path):
        with open_repository(sqlite_url(tmp_path)) as repository:
            ldoc = repository.add("doc", self.XML, scheme="dewey").ldoc
            conn = repository.backend._conn
            with ldoc.batch() as batch:
                batch.insert_before(ldoc.document.root.children[0], "new")
            before = conn.total_changes
            repository.persist("doc")
            # The new row, the five relabelled ones behind it (the
            # root keeps its label), and the documents row deleted and
            # re-inserted.
            assert conn.total_changes - before == 1 + 5 + 2
            assert table_rows(conn, "doc") == full_write_rows(ldoc, "doc")

    def test_a_different_live_document_rewrites_every_row(self, tmp_path):
        url = sqlite_url(tmp_path)
        with open_repository(url) as repository:
            repository.add("doc", self.XML, scheme="qed")
        with open_repository(url) as repository:
            ldoc = repository.get("doc").ldoc
            ldoc.updates.append_child(ldoc.document.root, "tail")
            conn = repository.backend._conn
            before = conn.total_changes
            repository.persist("doc")
            assert conn.total_changes - before == 6 + 7 + 2
            before = conn.total_changes
            ldoc.updates.append_child(ldoc.document.root, "tail")
            repository.persist("doc")
            assert conn.total_changes - before == 1 + 2


# ----------------------------------------------------------------------
# Files written with dense ordinals
# ----------------------------------------------------------------------

def write_dense_rows(path, name: str, ldoc: LabeledDocument) -> None:
    """Write ``ldoc`` the way the node table was written before stable
    keys: delete and re-insert the document, ordinals dense in document
    order, one label encode per row."""
    SQLiteBackend(str(path)).open().close()  # the schema
    snapshot = snapshot_document(ldoc, name)
    codec = codec_for(ldoc.scheme)
    conn = sqlite3.connect(str(path), isolation_level=None)
    try:
        conn.execute("BEGIN")
        conn.execute("DELETE FROM documents WHERE name = ?", (name,))
        doc_id = conn.execute(
            "INSERT INTO documents (name, scheme, config, xml, label_stream,"
            " stats) VALUES (?, ?, '{}', ?, ?, NULL)",
            (name, snapshot.scheme_name, snapshot.xml,
             snapshot.label_stream),
        ).lastrowid
        conn.executemany(
            "INSERT INTO nodes (doc_id, ord, parent_ord, kind, name, value, "
            "label) VALUES (?, ?, ?, ?, ?, ?, ?)",
            [(doc_id, r.ordinal, r.parent_ordinal, r.kind, r.name, r.value,
              codec.encode_labels([r.label])[0])
             for r in node_records(ldoc)],
        )
        conn.execute("COMMIT")
    finally:
        conn.close()


@pytest.mark.parametrize("scheme_name", ["qed", "dewey"])
def test_files_with_dense_ordinals_need_no_migration(tmp_path, scheme_name):
    # A document updated before it was written: its labels are not the
    # canonical ones, so label order and ordinal order are both tested.
    ldoc = LabeledDocument(parse(DOCUMENT_XML), make_scheme(scheme_name))
    run_program(ldoc, ldoc.updates,
                [("insert-before", 3, 0), ("append-child", 2, 0),
                 ("insert-subtree", 1, 2), ("delete", 5, 0)])
    write_dense_rows(tmp_path / "store.db", "doc", ldoc)
    url = sqlite_url(tmp_path)
    with open_repository(url) as repository:
        assert_reopened_equal(repository, "doc",
                              snapshot_document(ldoc, "doc"))
        live = repository.get("doc").ldoc
        run_program(live, live.updates,
                    [("insert-after", 4, 0), ("set-text", 2, 5)])
        persisted = repository.persist("doc")
        assert table_rows(repository.backend._conn, "doc") \
            == full_write_rows(live, "doc")
    with open_repository(url) as repository:
        assert_reopened_equal(repository, "doc", persisted)


# ----------------------------------------------------------------------
# persist() refuses inside open scopes
# ----------------------------------------------------------------------

class TestPersistRefusal:
    XML = "<a><b>x</b><c/></a>"

    def test_inside_a_transaction(self, tmp_path):
        with open_repository(sqlite_url(tmp_path)) as repository:
            ldoc = repository.add("doc", self.XML, scheme="qed").ldoc
            stored_before = repository.backend.get("doc")
            b = ldoc.document.root.children[0]
            with pytest.raises(TransactionError):
                with repository.transaction("doc") as txn:
                    txn.set_text(b, "changed")
                    repository.persist("doc")
            assert b.text_value() == "x"
            assert repository.backend.get("doc") == stored_before
            repository.persist("doc")
            assert "changed" not in repository.backend.get("doc").xml

    @pytest.mark.parametrize("scheme_name", ["dewey", "prepost", "qed"])
    def test_inside_a_batch(self, tmp_path, scheme_name):
        with open_repository(sqlite_url(tmp_path)) as repository:
            ldoc = repository.add("doc", self.XML, scheme=scheme_name).ldoc
            stored_before = repository.backend.get("doc")
            with ldoc.batch() as batch:
                batch.insert_before(ldoc.document.root.children[0], "new")
                with pytest.raises(BatchError):
                    repository.persist("doc")
            assert repository.backend.get("doc") == stored_before
            persisted = repository.persist("doc")
            assert "<new" in persisted.xml
            assert table_rows(repository.backend._conn, "doc") \
                == full_write_rows(ldoc, "doc")


def test_a_put_inside_a_rolled_back_scope_is_repaired_by_the_next_put(
        tmp_path):
    """A put inside a transaction writes the state it sees; the
    rollback's restores are then rows that differ, like any update."""
    with open_repository(sqlite_url(tmp_path)) as repository:
        ldoc = repository.add("doc", DOCUMENT_XML, scheme="dewey").ldoc
        backend = repository.backend
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                run_program(ldoc, ldoc.updates,
                            [("insert-before", 2, 0), ("set-text", 3, 1)])
                backend.put(snapshot_document(ldoc, "doc"), ldoc)
                assert table_rows(backend._conn, "doc") \
                    == full_write_rows(ldoc, "doc")
                raise RuntimeError("roll back")
        assert "doc" in backend._tables
        repository.persist("doc")
        assert table_rows(backend._conn, "doc") \
            == full_write_rows(ldoc, "doc")


def test_updates_between_puts_hold_no_rows(tmp_path):
    """The table keeps what the last put wrote, and nothing else."""
    with open_repository(sqlite_url(tmp_path)) as repository:
        ldoc = repository.add("doc", DOCUMENT_XML, scheme="qed").ldoc
        table = repository.backend._tables["doc"]
        rows, keys = dict(table.rows), dict(table.keys)
        for _ in range(50):
            added = ldoc.updates.append_child(ldoc.document.root, "tmp")
            ldoc.updates.delete(added.node)
        assert table.rows == rows and table.keys == keys
        conn = repository.backend._conn
        before = conn.total_changes
        repository.persist("doc")
        assert conn.total_changes - before == 2


def test_a_failed_put_rolls_back_and_the_next_put_writes_in_full(
        tmp_path, monkeypatch):
    from repro.store.backends import sqlite as sqlite_module

    with open_repository(sqlite_url(tmp_path)) as repository:
        ldoc = repository.add("doc", DOCUMENT_XML, scheme="qed").ldoc
        stored_before = repository.backend.get("doc")
        ldoc.updates.append_child(ldoc.document.root, "late")
        changes = sqlite_module._NodeTable.changes

        def fail(table, doc_id, codec):
            changes(table, doc_id, codec)
            raise RuntimeError("row write failed")

        monkeypatch.setattr(sqlite_module._NodeTable, "changes", fail)
        with pytest.raises(RuntimeError):
            repository.persist("doc")
        monkeypatch.undo()
        assert repository.backend.get("doc") == stored_before
        assert "doc" not in repository.backend._tables
        repository.persist("doc")
        assert table_rows(repository.backend._conn, "doc") \
            == full_write_rows(ldoc, "doc")


# ----------------------------------------------------------------------
# Node tables live as long as their document's place in the backend
# ----------------------------------------------------------------------

def test_close_and_delete_drop_their_node_tables(tmp_path):
    repository = open_repository(sqlite_url(tmp_path))
    repository.add("first", DOCUMENT_XML, scheme="qed")
    repository.add("second", DOCUMENT_XML, scheme="qed")
    backend = repository.backend
    assert sorted(backend._tables) == ["first", "second"]
    repository.remove("first")
    assert sorted(backend._tables) == ["second"]
    repository.close()
    assert backend._tables == {}


# ----------------------------------------------------------------------
# The byte-order fact behind ORDER BY label
# ----------------------------------------------------------------------

def test_byte_order_fact_is_pinned():
    declared = {
        name for name in supported_codec_schemes()
        if codec_for(make_scheme(name)).bytes_sort_in_document_order
    }
    assert declared == BYTE_ORDERED


@pytest.mark.parametrize("scheme_name", sorted(BYTE_ORDERED))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(program=programs(kinds=STRUCTURAL_KINDS, max_size=20))
def test_single_label_bytes_sort_in_document_order(scheme_name, program):
    ldoc = LabeledDocument(parse(DOCUMENT_XML), make_scheme(scheme_name))
    for serial, step in enumerate(program):
        # Each step is atomic: a step the scheme itself refuses (a
        # sector move can collide) rolls back and the program goes on.
        try:
            with ldoc.transaction():
                run_step(ldoc, ldoc.updates, step, serial)
        except ReproError:
            pass
    codec = codec_for(ldoc.scheme)
    data = [codec.encode_labels([label])[0]
            for label in ldoc.labels_in_document_order()]
    assert data == sorted(set(data))
