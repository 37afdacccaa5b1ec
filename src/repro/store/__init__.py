"""The XML repository layer: backends, indexes, joins, snapshots."""

from repro.store.backends import (
    MemoryBackend,
    NodeRecord,
    PageFileBackend,
    SQLiteBackend,
    StorageBackend,
    backend_for_url,
    parse_storage_url,
    register_backend,
    registered_backends,
)
from repro.store.indexes import DocumentIndexes
from repro.store.joins import (
    count_join,
    nested_loop_join,
    path_join,
    semi_join,
    stack_tree_join,
)
from repro.store.repository import (
    REQUIREMENT_PROPERTIES,
    StoredDocument,
    XMLRepository,
    open_repository,
    suggest_scheme,
)
from repro.store.snapshots import (
    Snapshot,
    restore_snapshot,
    snapshot_document,
)
from repro.store.twig import TwigMatcher, TwigNode, child, descendant, twig

__all__ = [
    "DocumentIndexes",
    "MemoryBackend",
    "NodeRecord",
    "PageFileBackend",
    "REQUIREMENT_PROPERTIES",
    "SQLiteBackend",
    "Snapshot",
    "StorageBackend",
    "StoredDocument",
    "TwigMatcher",
    "TwigNode",
    "XMLRepository",
    "backend_for_url",
    "child",
    "count_join",
    "descendant",
    "twig",
    "nested_loop_join",
    "open_repository",
    "parse_storage_url",
    "path_join",
    "register_backend",
    "registered_backends",
    "restore_snapshot",
    "semi_join",
    "snapshot_document",
    "stack_tree_join",
    "suggest_scheme",
]
