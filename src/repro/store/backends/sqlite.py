"""The SQLite backend: an edge-model node table behind the repository.

Each document is stored twice over, deliberately:

* a ``documents`` row keeps the canonical snapshot — XML text, scheme
  name, scheme configuration and the bit-exact label stream — so
  restore round-trips exactly like every other backend;
* a ``nodes`` table keeps one row per labelled node (name, kind, value,
  individually encoded label bytes, and the node's key and its
  parent's key) in the edge-model shape of the classic
  XML-to-relational mappings.  The node table is what answers *point
  queries* — "all nodes called ``title``, with labels" — straight from
  an index, without parsing the document text at all, which is the
  property that lets this backend serve documents too large to
  materialise.

Node keys (the ``ord`` and ``parent_ord`` columns) are stable: a full
write numbers the labelled nodes in document order, and a node attached
later takes the next unused key, so an insert never renumbers a row —
the storage-layer twin of the paper's Persistent Labels property.
Document order comes from the labels instead: ``ORDER BY label`` for
codecs whose per-label bytes sort in document order
(:attr:`~repro.encoding.codec.LabelStreamCodec.bytes_sort_in_document_order`),
``scheme.compare`` for the rest.

A put of a live document writes only the rows that changed since the
last put of that same document.  A per-document :class:`_NodeTable`
keeps the row it last wrote for each node; the put walks the labelled
nodes, writes those whose row differs and deletes the rows of nodes no
longer in the document.  What changed is read off the document itself,
so every kind of update and every rollback is covered without the
document reporting it.  The first put of a document, and a put of a
different or materialised document, write every row, through the same
routine.  The ``documents`` row is rewritten under its id every time.

Rows go through chunked ``executemany`` so XMark-sized documents insert
in a few statements rather than thousands.  The connection takes
``PRAGMA locking_mode=EXCLUSIVE`` and performs a write at open, so a
second open of the same file is refused with
:class:`~repro.errors.BackendLockedError` rather than interleaving
writers.
"""

from __future__ import annotations

import functools
import json
import os
import sqlite3
from typing import Any, Dict, List, Optional, Tuple

from repro.encoding.codec import codec_for
from repro.errors import BackendLockedError, StorageError
from repro.schemes.registry import make_scheme
from repro.store.backends.base import (
    NodeRecord,
    StorageBackend,
    register_backend,
)
from repro.store.snapshots import Snapshot
from repro.updates.document import LabeledDocument
from repro.xmlmodel.tree import NodeKind

#: Rows per ``executemany`` batch during node writes.
CHUNK_SIZE = 500

_ELEMENT, _ATTRIBUTE, _TEXT = (NodeKind.ELEMENT, NodeKind.ATTRIBUTE,
                             NodeKind.TEXT)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS documents (
    doc_id       INTEGER PRIMARY KEY,
    name         TEXT NOT NULL UNIQUE,
    scheme       TEXT NOT NULL,
    config       TEXT NOT NULL,
    xml          TEXT NOT NULL,
    label_stream BLOB NOT NULL,
    stats        TEXT
);
CREATE TABLE IF NOT EXISTS nodes (
    doc_id     INTEGER NOT NULL REFERENCES documents(doc_id),
    ord        INTEGER NOT NULL,
    parent_ord INTEGER,
    kind       TEXT NOT NULL,
    name       TEXT NOT NULL,
    value      TEXT NOT NULL,
    label      BLOB NOT NULL,
    PRIMARY KEY (doc_id, ord)
);
CREATE INDEX IF NOT EXISTS nodes_by_name ON nodes (doc_id, name, ord);
"""


class _NodeTable:
    """The node rows last written for one live document.

    ``keys`` maps node ids to row keys, and ``rows`` maps them to the
    ``(parent key, kind, name, value, label)`` each row was last
    written with.  Labels are immutable values, so comparing the kept
    label with the node's current one tells whether it changed.
    """

    def __init__(self, ldoc: LabeledDocument):
        self.ldoc = ldoc
        self.keys: Dict[int, int] = {}
        self.rows: Dict[int, tuple] = {}
        self.next_key = 0

    def changes(self, doc_id: int, codec: Any
                ) -> Tuple[List[tuple], List[tuple]]:
        """``(deletions, upserts)`` that bring the written rows up to date.

        One preorder walk builds every labelled node's row — the
        columns of :func:`~repro.store.backends.base.node_records`, an
        element's value being its direct text — from the children list
        it scans anyway.  A new node takes the next key after its
        parent has one, so a first write numbers every node in document
        order.  The rows become the last written ones; a put that fails
        drops the whole table.
        """
        labels = self.ldoc.labels
        keys = self.keys
        written = self.rows
        rows: Dict[int, tuple] = {}
        upserts = []
        root = self.ldoc.document.root
        stack = [] if root is None else [(root, None)]
        while stack:
            node, parent_key = stack.pop()
            node_id = node.node_id
            key = keys.get(node_id)
            if key is None:
                key = keys[node_id] = self.next_key
                self.next_key += 1
            if node.kind is _ELEMENT:
                texts = []
                labelled = []
                for child in node.children:
                    if child.kind is _TEXT:
                        texts.append(child.value or "")
                    elif child.kind is _ELEMENT or child.kind is _ATTRIBUTE:
                        labelled.append((child, key))
                labelled.reverse()
                stack.extend(labelled)
                kind, value = "element", "".join(texts)
            else:
                kind, value = "attribute", node.value or ""
            label = labels[node_id]
            row = rows[node_id] = (parent_key, kind, node.name, value, label)
            if written.get(node_id) != row:
                upserts.append((doc_id, key) + row[:4]
                               + (codec.encode_labels([label])[0],))
        deletions = [(doc_id, keys.pop(node_id))
                     for node_id in written if node_id not in rows]
        self.rows = rows
        return deletions, upserts


class SQLiteBackend(StorageBackend):
    """Node-table storage in a single SQLite file."""

    url_scheme = "sqlite"

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._conn: Optional[sqlite3.Connection] = None
        # scheme/codec pairs are rebuilt per (scheme, config) at most once
        self._codecs: Dict[Tuple[str, str], Any] = {}
        #: Document name -> the node table of the live document last put.
        self._tables: Dict[str, _NodeTable] = {}

    # -- lifecycle -------------------------------------------------------

    def _do_open(self) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=0.25,
                               isolation_level=None)
        try:
            conn.execute("PRAGMA locking_mode=EXCLUSIVE")
            conn.executescript(_SCHEMA)
            # Files created before the statistics column existed migrate
            # in place; NULL stats read back as "never collected".
            columns = [
                row[1] for row in conn.execute("PRAGMA table_info(documents)")
            ]
            if "stats" not in columns:
                conn.execute("ALTER TABLE documents ADD COLUMN stats TEXT")
            # With locking_mode=EXCLUSIVE the first write takes the
            # file's exclusive lock and keeps it until close; this
            # write is what makes a second open fail fast instead of
            # queueing behind us.
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("format", "1"),
            )
        except sqlite3.OperationalError as error:
            conn.close()
            if "locked" in str(error).lower():
                raise BackendLockedError(
                    f"sqlite backend {self.path!r} is already open "
                    f"elsewhere: {error}"
                ) from error
            raise StorageError(
                f"cannot open sqlite backend {self.path!r}: {error}"
            ) from error
        self._conn = conn

    def _do_close(self) -> None:
        self._tables.clear()
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- documents -------------------------------------------------------

    def _do_put(self, snapshot: Snapshot,
                ldoc: Optional[LabeledDocument]) -> None:
        """Write the snapshot, and the node rows that changed.

        Incremental when the last put of this name was of the same live
        document; otherwise every row is rewritten.  The table is kept
        for the next put only for a live document, and only once the
        write commits.
        """
        live = ldoc is not None
        if ldoc is None:
            ldoc = self._materialize(snapshot)
        codec = self._codec(snapshot.scheme_name, snapshot.scheme_config)
        table = self._tables.pop(snapshot.name, None)
        conn = self._connection()
        conn.execute("BEGIN")
        try:
            doc_id = self._put_document_row(conn, snapshot)
            if table is None or table.ldoc is not ldoc:
                conn.execute("DELETE FROM nodes WHERE doc_id = ?", (doc_id,))
                table = _NodeTable(ldoc)
            deletions, upserts = table.changes(doc_id, codec)
            for start in range(0, len(deletions), CHUNK_SIZE):
                conn.executemany(
                    "DELETE FROM nodes WHERE doc_id = ? AND ord = ?",
                    deletions[start:start + CHUNK_SIZE],
                )
            for start in range(0, len(upserts), CHUNK_SIZE):
                conn.executemany(
                    "INSERT OR REPLACE INTO nodes (doc_id, ord, parent_ord, "
                    "kind, name, value, label) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    upserts[start:start + CHUNK_SIZE],
                )
            conn.execute("COMMIT")
        except Exception as error:
            conn.execute("ROLLBACK")
            if isinstance(error, sqlite3.Error):
                raise StorageError(
                    f"sqlite put of {snapshot.name!r} failed: {error}"
                ) from error
            raise
        if live:
            self._tables[snapshot.name] = table

    @staticmethod
    def _put_document_row(conn: sqlite3.Connection,
                          snapshot: Snapshot) -> int:
        """Write ``snapshot``'s ``documents`` row; its (kept) id.

        An existing row is deleted and re-inserted under the same id
        rather than updated: an UPDATE writes the new overflow pages
        before it frees the old ones, which left a spare copy of the
        document on the file's freelist (+188 KB at XMark scale 10).
        """
        row = conn.execute(
            "SELECT doc_id FROM documents WHERE name = ?", (snapshot.name,),
        ).fetchone()
        if row is not None:
            conn.execute("DELETE FROM documents WHERE doc_id = ?", row)
        return conn.execute(
            "INSERT INTO documents (doc_id, name, scheme, config, xml, "
            "label_stream, stats) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (None if row is None else row[0], snapshot.name,
             snapshot.scheme_name,
             json.dumps(snapshot.scheme_config, sort_keys=True),
             snapshot.xml, snapshot.label_stream,
             None if snapshot.stats is None
             else json.dumps(snapshot.stats, sort_keys=True)),
        ).lastrowid

    def _do_get(self, name: str) -> Snapshot:
        row = self._connection().execute(
            "SELECT scheme, config, xml, label_stream, stats FROM documents "
            "WHERE name = ?", (name,),
        ).fetchone()
        if row is None:
            raise self._missing(name)
        scheme_name, config, xml, label_stream, stats = row
        return Snapshot(
            name=name,
            scheme_name=scheme_name,
            xml=xml,
            label_stream=bytes(label_stream),
            scheme_config=json.loads(config),
            stats=None if stats is None else json.loads(stats),
        )

    def _do_delete(self, name: str) -> None:
        conn = self._connection()
        row = conn.execute(
            "SELECT doc_id FROM documents WHERE name = ?", (name,),
        ).fetchone()
        if row is None:
            raise self._missing(name)
        self._tables.pop(name, None)
        conn.execute("BEGIN")
        conn.execute("DELETE FROM nodes WHERE doc_id = ?", row)
        conn.execute("DELETE FROM documents WHERE doc_id = ?", row)
        conn.execute("COMMIT")

    def _do_names(self) -> List[str]:
        rows = self._connection().execute(
            "SELECT name FROM documents"
        ).fetchall()
        return [name for (name,) in rows]

    def _do_storage_bytes(self) -> int:
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    # -- point queries ---------------------------------------------------

    def _do_point_query(self, document: str,
                        node_name: str) -> Optional[List[NodeRecord]]:
        """Answer from the node table alone — no XML parse, ever.

        The matching rows come off the ``(doc_id, name, ord)`` index and
        each row's label bytes are decoded individually, so cost scales
        with the number of hits, not with document size.  Keys are not
        in document order once a node was added after a full write, so
        records come back in label order: SQLite sorts the label bytes
        where the codec's bytes sort in document order, and
        ``scheme.compare`` sorts the decoded labels otherwise.  The
        base class's
        :meth:`~repro.store.backends.base.StorageBackend.point_query`
        wrapper supplies the metrics, span and op event.
        """
        conn = self._connection()
        doc = conn.execute(
            "SELECT doc_id, scheme, config FROM documents WHERE name = ?",
            (document,),
        ).fetchone()
        if doc is None:
            raise self._missing(document)
        doc_id, scheme_name, config = doc
        codec = self._codec(scheme_name, json.loads(config))
        by_label = codec.bytes_sort_in_document_order
        rows = conn.execute(
            "SELECT ord, parent_ord, kind, name, value, label FROM nodes "
            "WHERE doc_id = ? AND name = ? ORDER BY "
            + ("label" if by_label else "ord"),
            (doc_id, node_name),
        ).fetchall()
        records = [
            NodeRecord(
                ordinal=ordinal,
                parent_ordinal=parent_ord,
                kind=kind,
                name=name,
                value=value,
                label=codec.decode_labels(bytes(label))[0],
            )
            for ordinal, parent_ord, kind, name, value, label in rows
        ]
        if not by_label:
            compare = codec.scheme.compare
            records.sort(key=functools.cmp_to_key(
                lambda left, right: compare(left.label, right.label)))
        return records

    # -- internals -------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StorageError(
                f"sqlite backend {self.path!r} has no live connection"
            )
        return self._conn

    def _codec(self, scheme_name: str, config: Dict[str, Any]):
        key = (scheme_name, json.dumps(config, sort_keys=True))
        if key not in self._codecs:
            self._codecs[key] = codec_for(make_scheme(scheme_name, **config))
        return self._codecs[key]


register_backend("sqlite", SQLiteBackend)
