"""The ``StorageBackend`` protocol: what every storage engine must do.

The repository API (:mod:`repro.store.repository`) no longer owns any
persistence of its own — it delegates everything to a backend behind
this protocol: open/close, put/get/delete of whole-document
:class:`~repro.store.snapshots.Snapshot` states (bit-exact label
streams and scheme configuration included), name iteration, and
storage-size reporting.  Backends that keep a queryable node table may
additionally answer *point queries* — "every node called ``title``,
with its label" — without materialising the document, which is what
lets a disk backend serve documents larger than RAM.

Backends register a URL scheme (``memory://``, ``sqlite:///…``,
``pagefile:///…``) so :func:`repro.store.open_repository` can pick the
engine from one string.  Every backend publishes its traffic as
``store.backend.*`` counters and ``backend.*`` instrumentation events
(op-log records and tracing spans of the same name), so the
observability surface is uniform across engines.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import BackendLockedError, StorageError
from repro.observability.metrics import get_registry
from repro.observability.ops import instrument
from repro.store.snapshots import Snapshot, restore_snapshot
from repro.updates.document import LabeledDocument


@dataclass(frozen=True)
class NodeRecord:
    """One labelled node as a backend stores it: the edge-model row.

    ``ordinal`` is the node's key and ``parent_ordinal`` its parent's
    (``None`` for the root) — together they are the edge relation of
    the XML-to-relational mappings this schema follows.  Keys number a
    freshly written document's labelled nodes in document order; the
    SQLite node table keeps them stable afterwards, giving later nodes
    the next unused key, so there they identify rows but are no longer
    dense or ordered.  Records always come back in document order.
    ``value`` is the attribute value, or an element's direct text
    content.  ``label`` is the decoded label object of the document's
    scheme.
    """

    ordinal: int
    parent_ordinal: Optional[int]
    kind: str            # "element" | "attribute"
    name: str
    value: str
    label: Any


def _node_record(ldoc: LabeledDocument, node, ordinal: int,
                 ordinals: Dict[int, int]) -> NodeRecord:
    parent = node.parent
    return NodeRecord(
        ordinal=ordinal,
        parent_ordinal=(ordinals.get(parent.node_id)
                        if parent is not None else None),
        kind="attribute" if node.is_attribute else "element",
        name=node.name,
        value=(node.value or "") if node.is_attribute else node.text_value(),
        label=ldoc.labels[node.node_id],
    )


def node_records(ldoc: LabeledDocument) -> List[NodeRecord]:
    """The edge-model rows of a labelled document, in document order."""
    ordinals: Dict[int, int] = {}
    records: List[NodeRecord] = []
    for ordinal, node in enumerate(ldoc.document.labeled_nodes()):
        ordinals[node.node_id] = ordinal
        records.append(_node_record(ldoc, node, ordinal, ordinals))
    return records


def named_node_records(ldoc: LabeledDocument, name: str) -> List[NodeRecord]:
    """The :func:`node_records` rows of the nodes called ``name``.

    Every node is numbered, since ordinals count all of them, but only
    the matches are built into records.
    """
    ordinals: Dict[int, int] = {}
    records: List[NodeRecord] = []
    for ordinal, node in enumerate(ldoc.document.labeled_nodes()):
        ordinals[node.node_id] = ordinal
        if node.name == name:
            records.append(_node_record(ldoc, node, ordinal, ordinals))
    return records


class StorageBackend(abc.ABC):
    """One storage engine behind the repository API.

    Concrete backends implement the ``_do_*`` primitives; the public
    methods here wrap them uniformly in ``store.backend.*`` counters and
    ``backend.*`` events, and enforce the open/closed lifecycle.
    Backends are context managers; :meth:`close` is safe to call twice.
    """

    #: The URL scheme :func:`backend_for_url` dispatches on.
    url_scheme: str = ""

    def __init__(self):
        self._opened = False
        registry = get_registry()
        self._metric_puts = registry.counter("store.backend.puts")
        self._metric_gets = registry.counter("store.backend.gets")
        self._metric_deletes = registry.counter("store.backend.deletes")
        self._metric_point_queries = registry.counter(
            "store.backend.point_queries"
        )
        self._metric_lock_refusals = registry.counter(
            "store.backend.lock_refusals"
        )

    # -- lifecycle -------------------------------------------------------

    def open(self) -> "StorageBackend":
        """Acquire the underlying storage (idempotent); returns self."""
        if self._opened:
            return self
        # A refusal leaves an error event: contention evidence for the
        # health watchdog (another process, or another handle in this
        # one, holds the engine's single-writer lock).
        with instrument("backend.open", scheme=self.url_scheme):
            try:
                self._do_open()
            except BackendLockedError:
                self._metric_lock_refusals.increment()
                raise
        self._opened = True
        return self

    def close(self) -> None:
        """Release the underlying storage (safe to call twice)."""
        if not self._opened:
            return
        self._opened = False
        self._do_close()

    def __enter__(self) -> "StorageBackend":
        return self.open()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- documents -------------------------------------------------------

    def put(self, snapshot: Snapshot,
            ldoc: Optional[LabeledDocument] = None) -> None:
        """Persist one document state (upsert by ``snapshot.name``).

        ``ldoc`` is the live document the snapshot was taken from, when
        the caller has it; node-table backends use it to derive their
        edge-model rows without re-parsing ``snapshot.xml``, and when
        the same live document is put again, to write only the rows
        that changed since.
        """
        self._require_open()
        with instrument("backend.put", document=snapshot.name,
                        scheme=self.url_scheme):
            self._do_put(snapshot, ldoc)
        self._metric_puts.increment()

    def get(self, name: str) -> Snapshot:
        """Load one document state; :class:`StorageError` when absent."""
        self._require_open()
        with instrument("backend.get", document=name,
                        scheme=self.url_scheme):
            snapshot = self._do_get(name)
        self._metric_gets.increment()
        return snapshot

    def delete(self, name: str) -> None:
        """Forget one document; :class:`StorageError` when absent."""
        self._require_open()
        with instrument("backend.delete", document=name,
                        scheme=self.url_scheme):
            self._do_delete(name)
        self._metric_deletes.increment()

    def names(self) -> List[str]:
        """Stored document names, sorted."""
        self._require_open()
        return sorted(self._do_names())

    def contains(self, name: str) -> bool:
        self._require_open()
        return name in self._do_names()

    # -- reporting -------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total bytes this backend holds at rest."""
        self._require_open()
        return self._do_storage_bytes()

    # -- point queries ---------------------------------------------------

    def point_query(self, document: str,
                    node_name: str) -> Optional[List[NodeRecord]]:
        """Nodes called ``node_name``, straight from storage.

        Returns ``None`` when this backend keeps no queryable node
        table — the repository then falls back to materialising the
        document.  Backends that do answer (override
        :meth:`_do_point_query`) return the matching
        :class:`NodeRecord` rows in document order, decoded labels
        included, without re-parsing the document text.
        """
        self._require_open()
        with instrument("backend.point_query", document=document,
                        scheme=self.url_scheme,
                        node_name=node_name) as event:
            records = self._do_point_query(document, node_name)
            if records is not None:
                self._metric_point_queries.increment()
                event.set(nodes=len(records))
        return records

    def _do_point_query(self, document: str,
                        node_name: str) -> Optional[List[NodeRecord]]:
        """Engine hook for :meth:`point_query`; default: no node table."""
        return None

    # -- the backend contract -------------------------------------------

    @abc.abstractmethod
    def _do_open(self) -> None: ...

    @abc.abstractmethod
    def _do_close(self) -> None: ...

    @abc.abstractmethod
    def _do_put(self, snapshot: Snapshot,
                ldoc: Optional[LabeledDocument]) -> None: ...

    @abc.abstractmethod
    def _do_get(self, name: str) -> Snapshot: ...

    @abc.abstractmethod
    def _do_delete(self, name: str) -> None: ...

    @abc.abstractmethod
    def _do_names(self) -> List[str]: ...

    @abc.abstractmethod
    def _do_storage_bytes(self) -> int: ...

    # -- internals -------------------------------------------------------

    def _require_open(self) -> None:
        if not self._opened:
            raise StorageError(
                f"{type(self).__name__} is not open; call open() first "
                f"(or use the backend as a context manager)"
            )

    def _missing(self, name: str) -> StorageError:
        return StorageError(
            f"{self.url_scheme} backend stores no document named {name!r}"
        )

    def _materialize(self, snapshot: Snapshot) -> LabeledDocument:
        """Shared fallback: rebuild the labelled document of a snapshot."""
        return restore_snapshot(snapshot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self._opened else "closed"
        return f"<{type(self).__name__} {state}>"


# ----------------------------------------------------------------------
# URL dispatch
# ----------------------------------------------------------------------

#: ``url scheme -> factory(path) -> backend``, filled by register_backend.
_BACKEND_FACTORIES: Dict[str, Callable[[str], StorageBackend]] = {}

#: Path suffixes accepted for bare (scheme-less) paths.
_SUFFIX_SCHEMES = {
    ".db": "sqlite",
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
    ".pages": "pagefile",
    ".pagefile": "pagefile",
}


def register_backend(scheme: str,
                     factory: Callable[[str], StorageBackend]) -> None:
    """Register a backend factory under a URL scheme."""
    _BACKEND_FACTORIES[scheme] = factory


def registered_backends() -> List[str]:
    """The registered URL schemes, sorted."""
    return sorted(_BACKEND_FACTORIES)


def parse_storage_url(url_or_path: str) -> Tuple[str, str]:
    """Split a storage URL (or bare path) into ``(scheme, path)``.

    ``memory://`` carries no path; ``sqlite:///x.db`` and
    ``pagefile:///x.pages`` follow the SQLAlchemy convention — three
    slashes introduce a path relative to the working directory, four
    (``sqlite:////var/data/x.db``) an absolute one.  A bare path is
    accepted when its suffix names a backend unambiguously
    (``.db``/``.sqlite``/``.sqlite3`` → sqlite,
    ``.pages``/``.pagefile`` → pagefile); anything else raises
    :class:`StorageError` naming the valid schemes.
    """
    if "://" in url_or_path:
        scheme, _, rest = url_or_path.partition("://")
        if scheme not in _BACKEND_FACTORIES:
            raise StorageError(
                f"unknown storage scheme {scheme!r}; known: "
                f"{registered_backends()}"
            )
        if scheme != "memory" and not rest.lstrip("/"):
            raise StorageError(f"{scheme}:// needs a file path")
        # sqlite:///x.db is relative, sqlite:////abs/x.db absolute: the
        # slash after the authority's ``//`` separates it from the path,
        # so one leading slash is the separator and any further ones
        # belong to the path itself.
        if rest.startswith("/"):
            rest = rest[1:]
        return scheme, rest
    suffix = os.path.splitext(url_or_path)[1].lower()
    scheme = _SUFFIX_SCHEMES.get(suffix)
    if scheme is None:
        raise StorageError(
            f"cannot infer a storage backend from {url_or_path!r}; "
            f"use an explicit URL ({', '.join(registered_backends())}) "
            f"or a recognised suffix ({sorted(_SUFFIX_SCHEMES)})"
        )
    return scheme, url_or_path


def backend_for_url(url_or_path: str) -> StorageBackend:
    """Instantiate (but do not open) the backend a URL names."""
    scheme, path = parse_storage_url(url_or_path)
    return _BACKEND_FACTORIES[scheme](path)
