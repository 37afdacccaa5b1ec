"""A multi-document XML repository over pluggable storage backends.

The survey frames its whole analysis around "the adoption of XML
repositories in mainstream industry"; this module is that repository in
miniature: named documents, each bound to a (per-document) labelling
scheme, with secondary indexes, structural-join path queries, snapshot
and restore through the bit-exact label codecs, and storage reporting.
It is also where section 5.2's selection advice becomes executable —
``suggest_scheme`` turns a requirements profile into a Figure 7 lookup.

Persistence is delegated entirely to a
:class:`~repro.store.backends.StorageBackend`.  The repository keeps a
*live* cache of materialised documents (parsed trees, labels, secondary
indexes) for querying and mutation; every ``add``/``restore`` writes
through to the backend, and documents found only in the backend are
materialised on first access.  :func:`open_repository` is the public
entry point — ``memory://`` reproduces the original in-RAM behaviour,
``sqlite:///…`` and ``pagefile:///…`` put the store on disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.properties import PAPER_FIGURE_7, PROPERTY_ORDER, Property
from repro.errors import (
    BatchError,
    StorageError,
    TransactionError,
    UpdateError,
)
from repro.observability.metrics import get_registry
from repro.schemes.registry import make_scheme
from repro.store.backends import NodeRecord, StorageBackend, backend_for_url
from repro.store.backends.base import named_node_records
from repro.store.indexes import DocumentIndexes
from repro.store.joins import path_join
from repro.store.snapshots import (
    Snapshot,
    restore_snapshot,
    snapshot_document,
)
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import Document, XMLNode

__all__ = [
    "REQUIREMENT_PROPERTIES",
    "Snapshot",
    "StoredDocument",
    "XMLRepository",
    "open_repository",
    "restore_snapshot",
    "snapshot_document",
    "suggest_scheme",
]


class StoredDocument:
    """One materialised repository entry: labelled document + indexes.

    ``stats`` is the document's cardinality profile
    (:class:`~repro.observability.stats.StatsCollector`): collected at
    materialisation when none is supplied, refreshed automatically when
    a restored payload no longer matches the live node count or the
    document has changed since (learned selectivities survive the
    refresh), and persisted through every snapshot so EXPLAIN estimates
    follow the document across backends.
    """

    def __init__(self, name: str, ldoc: LabeledDocument, stats=None):
        from repro.observability.stats import StatsCollector

        self.name = name
        self.ldoc = ldoc
        self.indexes = DocumentIndexes(ldoc)
        if stats is None:
            stats = StatsCollector.collect(ldoc)
        elif stats.node_count == len(ldoc.labels):
            # Restored with its document: snapshot() refreshed it.
            stats.stamp(ldoc)
        else:
            stats.refresh(ldoc)
        self.stats = stats
        self._registered_queries: List[str] = []

    # -- queries ---------------------------------------------------------

    def register_query(self, path: str) -> None:
        """Declare ``path`` a standing query over this document.

        Registered queries are what ``repro update check`` and
        :func:`repro.ulang.check_program` decide update/query
        independence against: an update program is only safe for this
        document if every registered query is proven independent or the
        conflict is consciously accepted.  The path is parsed eagerly so
        registration fails fast on a bad expression.
        """
        from repro.axes.xpath_ast import parse_xpath

        parse_xpath(path)
        if path not in self._registered_queries:
            self._registered_queries.append(path)
            get_registry().counter("repository.registered_queries").increment()

    @property
    def registered_queries(self) -> List[str]:
        """The standing queries, in registration order (a copy)."""
        return list(self._registered_queries)

    def check_update(self, program):
        """Statically analyze ``program`` against this document.

        Convenience for the repository workflow: the registered queries,
        the cardinality stats and the scheme all come from this entry.
        Returns an :class:`~repro.ulang.analysis.AnalysisReport`.
        """
        from repro.ulang import check_program

        if self.stats.stale(self.ldoc):
            self.stats.refresh(self.ldoc)
        return check_program(
            program, queries=self._registered_queries,
            stats=self.stats,
            scheme_name=self.ldoc.scheme.metadata.name,
        )

    def find(self, name: str) -> List[XMLNode]:
        """All elements/attributes called ``name``, in document order."""
        return [node for _label, node in self.indexes.by_name(name)]

    def find_value(self, value: str) -> List[XMLNode]:
        """All nodes whose content equals ``value``."""
        return [node for _label, node in self.indexes.by_value(value)]

    def descendant_path(self, names: Sequence[str]) -> List[XMLNode]:
        """``//a//b//c``-style query via structural semi-joins.

        Index scans feed the stack-based joins of
        :mod:`repro.store.joins`; no tree navigation happens.
        """
        from repro.observability.ops import instrument

        get_registry().counter("repository.path_queries").increment()
        with instrument("repository.path_query", document=self.name,
                        scheme=self.ldoc.scheme.metadata.name,
                        steps=len(names)) as event:
            levels = [self.indexes.by_name(step) for step in names]
            matches = [] if any(not level for level in levels) else [
                node for _label, node in path_join(self.ldoc.scheme, levels)
            ]
            event.set(nodes=len(matches))
        return matches

    def xpath(self, path: str) -> List[XMLNode]:
        """Full mini-XPath over this document, answered by its index."""
        from repro.axes.xpath import xpath as evaluate
        from repro.observability.ops import instrument

        with instrument("repository.xpath", document=self.name,
                        scheme=self.ldoc.scheme.metadata.name) as event:
            matches = evaluate(self.ldoc, path)
            event.set(nodes=len(matches))
        return matches

    def explain(self, path: str, analyze: bool = False):
        """EXPLAIN ``path`` against this document's own index and stats.

        Returns a :class:`~repro.observability.explain.QueryPlan`; with
        ``analyze=True`` the query executes and the observed step
        cardinalities sharpen ``self.stats`` for future estimates.
        """
        from repro.observability.explain import explain_query

        return explain_query(self.ldoc, path, stats=self.stats,
                             analyze=analyze)

    # -- persistence -------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Freeze this document's state, stats included.

        Refused while the document has an open batch
        (:class:`~repro.errors.BatchError`): a batch's deferred nodes
        have no labels yet.  Every repository snapshot and persist
        passes through here.
        """
        if self.ldoc._active_batch is not None:
            raise BatchError(
                f"cannot snapshot or persist {self.name!r} while a batch "
                f"is open; apply or roll it back first"
            )
        if self.stats.stale(self.ldoc):
            self.stats.refresh(self.ldoc)
        return snapshot_document(self.ldoc, self.name,
                                 stats=self.stats.to_payload())

    def storage_bits(self) -> int:
        return self.ldoc.total_label_bits()


class XMLRepository:
    """Named documents, each labelled by a scheme of the caller's choice.

    All persistence goes through ``self.backend``; the repository's own
    state is only the live cache of materialised documents.  Mutating a
    live document (through ``stored.ldoc`` or a transaction) does not
    write through — call :meth:`persist` to push the current state back
    to the backend, exactly as snapshotting always worked.

    Open one with :func:`open_repository`, or pass an opened
    :class:`~repro.store.backends.StorageBackend`.
    """

    def __init__(self, backend: StorageBackend,
                 default_scheme: str = "cdqs"):
        self.default_scheme = default_scheme
        self.backend = backend
        self._live: Dict[str, StoredDocument] = {}

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the backend (safe to call twice)."""
        self._live.clear()
        self.backend.close()

    def __enter__(self) -> "XMLRepository":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- document management ----------------------------------------------

    def add(self, name: str, source: Union[str, Document],
            scheme: Optional[str] = None, **scheme_config) -> StoredDocument:
        """Ingest a document (XML text or an existing tree)."""
        if name in self:
            raise UpdateError(f"document {name!r} already exists")
        from repro.observability.ops import instrument

        document = parse(source) if isinstance(source, str) else source
        scheme_name = scheme or self.default_scheme
        with instrument("repository.ingest", document=name,
                        scheme=scheme_name) as event:
            ldoc = LabeledDocument(
                document, make_scheme(scheme_name, **scheme_config)
            )
            stored = StoredDocument(name, ldoc)
            self.backend.put(stored.snapshot(), ldoc)
            event.set(nodes=len(ldoc.labels))
        get_registry().counter("repository.documents_added").increment()
        self._live[name] = stored
        return stored

    def get(self, name: str) -> StoredDocument:
        """The live document, materialising from the backend if needed."""
        stored = self._live.get(name)
        if stored is not None:
            return stored
        try:
            snapshot = self.backend.get(name)
        except StorageError:
            raise UpdateError(f"no document named {name!r}") from None
        from repro.observability.stats import StatsCollector

        stored = StoredDocument(
            name, restore_snapshot(snapshot),
            stats=StatsCollector.from_payload(snapshot.stats),
        )
        self._live[name] = stored
        return stored

    def remove(self, name: str) -> None:
        try:
            self.backend.delete(name)
        except StorageError:
            raise UpdateError(f"no document named {name!r}") from None
        self._live.pop(name, None)

    def names(self) -> List[str]:
        return self.backend.names()

    def live_names(self) -> List[str]:
        """The currently materialised documents, sorted."""
        return sorted(self._live)

    def __contains__(self, name: str) -> bool:
        return self.backend.contains(name)

    def __len__(self) -> int:
        return len(self.backend.names())

    # -- persistence -------------------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """Freeze one document's state.

        A live (possibly mutated) document is snapshotted as it stands;
        a document known only to the backend is returned straight from
        storage without materialising it.
        """
        get_registry().counter("repository.snapshots").increment()
        stored = self._live.get(name)
        if stored is not None:
            return stored.snapshot()
        try:
            return self.backend.get(name)
        except StorageError:
            raise UpdateError(f"no document named {name!r}") from None

    def persist(self, name: str) -> Snapshot:
        """Write a live document's current state back to the backend.

        Refused while the document has an open transaction
        (:class:`~repro.errors.TransactionError`) or batch
        (:class:`~repro.errors.BatchError`): the store would keep state
        that a rollback later undoes, and a batch's deferred nodes have
        no labels yet.
        """
        stored = self._live.get(name)
        if stored is None:
            raise UpdateError(f"document {name!r} is not materialised")
        if stored.ldoc._active_txn is not None:
            raise TransactionError(
                f"cannot persist {name!r} while a transaction is open; "
                f"commit or roll it back first"
            )
        snapshot = stored.snapshot()
        self.backend.put(snapshot, stored.ldoc)
        return snapshot

    def restore(self, snapshot: Snapshot,
                name: Optional[str] = None) -> StoredDocument:
        """Rebuild a document from a snapshot, labels included.

        The label stream is decoded and re-attached to the re-parsed
        tree in document order; a persistent scheme's labels therefore
        come back bit-identical.  The restored document is persisted to
        the backend under its (possibly new) name.
        """
        get_registry().counter("repository.restores").increment()
        target = name or snapshot.name
        if target in self:
            raise UpdateError(f"document {target!r} already exists")
        from repro.observability.stats import StatsCollector

        ldoc = restore_snapshot(snapshot)
        stored = StoredDocument(
            target, ldoc,
            stats=StatsCollector.from_payload(snapshot.stats),
        )
        self.backend.put(stored.snapshot(), ldoc)
        self._live[target] = stored
        return stored

    # -- point queries -----------------------------------------------------

    def point_query(self, name: str, node_name: str) -> List[NodeRecord]:
        """All nodes called ``node_name``, served from storage if possible.

        Node-table backends (SQLite) answer without parsing the document
        at all; others fall back to the materialised document's indexes.
        """
        if name not in self._live:
            try:
                records = self.backend.point_query(name, node_name)
            except StorageError:
                raise UpdateError(f"no document named {name!r}") from None
            if records is not None:
                return records
        return named_node_records(self.get(name).ldoc, node_name)

    # -- transactions --------------------------------------------------------

    def transaction(self, name: str, journal=None):
        """An atomic update scope over one stored document.

        ::

            with repository.transaction("orders") as txn:
                txn.append_child(parent, "order")

        A clean exit commits; any exception rolls the document — labels,
        label index and secondary indexes included — back to its
        pre-transaction state.  Pass a
        :class:`~repro.durability.journal.Journal` to write-ahead-log the
        operations for crash recovery.
        """
        from repro.durability.transactions import Transaction

        get_registry().counter("repository.transactions").increment()
        return Transaction(self.get(name).ldoc, journal=journal)

    # -- reporting -----------------------------------------------------------

    def storage_report(self) -> List[Tuple[str, str, int, int]]:
        """(name, scheme, labelled nodes, label bits) per document."""
        return [
            (
                name,
                stored.ldoc.scheme.metadata.name,
                len(stored.ldoc.labels),
                stored.storage_bits(),
            )
            for name in self.names()
            for stored in [self.get(name)]
        ]


def open_repository(url_or_path: str = "memory://",
                    default_scheme: str = "cdqs") -> XMLRepository:
    """Open a repository over the backend a storage URL names.

    ``memory://`` is the original in-RAM behaviour; ``sqlite:///file.db``
    opens (creating if needed) an edge-model node table that can answer
    point queries without materialisation; ``pagefile:///file.pages``
    opens an append-only page file with journal-style crash safety.  A
    bare path with a recognised suffix (``.db``, ``.sqlite``,
    ``.sqlite3``, ``.pages``, ``.pagefile``) also works.  Close the
    repository (or use it as a context manager) to release disk locks.
    """
    return XMLRepository(
        default_scheme=default_scheme,
        backend=backend_for_url(url_or_path).open(),
    )


#: Requirement keywords accepted by :func:`suggest_scheme`, mapped to the
#: Figure 7 column that must grade F.
REQUIREMENT_PROPERTIES = {
    "version-control": Property.PERSISTENT_LABELS,
    "persistent": Property.PERSISTENT_LABELS,
    "large-documents": Property.OVERFLOW_FREEDOM,
    "overflow-free": Property.OVERFLOW_FREEDOM,
    "xpath": Property.XPATH_EVALUATION,
    "level": Property.LEVEL_ENCODING,
    "compact": Property.COMPACT_ENCODING,
    "orthogonal": Property.ORTHOGONALITY,
    "no-division": Property.DIVISION_FREEDOM,
    "no-recursion": Property.RECURSION_FREEDOM,
}


def suggest_scheme(requirements: Sequence[str]) -> List[str]:
    """Section 5.2's selection guidance, from the published matrix.

    "The evaluation framework can provide assistance in the selection of
    a dynamic labelling scheme ... by enabling the database designer or
    data modeller to select the labelling scheme that is most suitable
    for their requirements."  Given requirement keywords (see
    REQUIREMENT_PROPERTIES), returns the Figure 7 schemes whose graded
    cells are F for every requirement, in row order.
    """
    try:
        wanted = [REQUIREMENT_PROPERTIES[item] for item in requirements]
    except KeyError as error:
        raise UpdateError(
            f"unknown requirement {error.args[0]!r}; known: "
            f"{sorted(REQUIREMENT_PROPERTIES)}"
        ) from None
    columns = {prop: index + 2 for index, prop in enumerate(PROPERTY_ORDER)}
    matches = []
    for scheme_name, row in PAPER_FIGURE_7.items():
        if all(row[columns[prop]] == "F" for prop in wanted):
            matches.append(scheme_name)
    return matches
