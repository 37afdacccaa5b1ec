"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  The hierarchy mirrors the package layers:
parsing, labelling, updates and the evaluation framework each get their own
branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class XMLSyntaxError(ReproError):
    """Raised by the parser on malformed XML input.

    Carries the 1-based ``line`` and ``column`` of the offending character
    when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TreeStructureError(ReproError):
    """Raised for invalid tree manipulations (cycles, bad parents, ...)."""


class LabelError(ReproError):
    """Base class for labelling-scheme errors."""


class InvalidLabelError(LabelError):
    """A label value is malformed for the scheme that produced it."""


class LabelCollisionError(LabelError):
    """Two distinct nodes were assigned the same label.

    LSDX-family schemes raise this in the documented corner cases; the
    evaluation framework catches it as evidence for the uniqueness failure
    described in the paper (Sans & Laurent [19]).
    """


class OverflowEvent(LabelError):
    """A fixed-size field of the labelling scheme has been exhausted.

    The updates layer catches this, relabels the document and records the
    event; it is the mechanism behind the paper's section 4 "overflow
    problem".
    """


class UnsupportedRelationshipError(LabelError):
    """The scheme cannot decide the requested relationship from labels alone.

    For example preorder/postorder containment labels cannot decide
    parent-child without level information, and vector labels cannot decide
    parent-child at all.  The XPath-evaluation probe interprets this error
    as partial or no compliance.
    """


class StaleIndexError(ReproError):
    """A derived index no longer matches the document it was built over.

    Raised by the axis accelerator when the document's structure version
    has advanced past the index's stamp without the index having
    consumed the corresponding structural deltas — answering would
    silently serve results computed from dead positions; call
    ``refresh()`` on the index to clear the condition.  The repository's
    label lookups (``DocumentIndexes``) also raise it while a batch has
    unlabelled pending nodes, until the batch applies or rolls back.
    """


class MetricsError(ReproError):
    """The observability registry was misused.

    Raised when one instrument name is requested as two different
    instrument types (a ``counter`` and later a ``histogram``, say): the
    registry refuses to shadow or clobber, because both callers would
    silently publish into diverging instruments.
    """


class UpdateError(ReproError):
    """An update operation was invalid for the current document state."""


class XPathError(ReproError):
    """Raised by the mini XPath evaluator for unsupported or bad paths."""


class ULangError(ReproError):
    """Base class for update-language (``repro.ulang``) errors."""


class ULangSyntaxError(ULangError):
    """An update program could not be parsed.

    Carries the 1-based ``line`` of the offending statement so CLI and
    analyzer output can point at the source.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message if not line
                         else f"line {line}: {message}")
        self.line = line


class ULangTargetError(ULangError):
    """A statement's target path resolved to an unusable node set."""


class FrameworkError(ReproError):
    """Raised by the evaluation framework for misconfigured probes."""


class SchemeConfigurationError(FrameworkError):
    """A scheme could not be instantiated as requested.

    Raised uniformly by :func:`repro.schemes.registry.make_scheme` for
    both failure modes — an unknown registry name and constructor kwargs
    the scheme rejects — so callers handle misconfiguration in one place.
    Carries the sorted list of valid registry names in ``known_schemes``.
    """

    def __init__(self, message: str, known_schemes=()):
        super().__init__(message)
        self.known_schemes = list(known_schemes)


class BatchError(UpdateError):
    """A bulk update batch was used incorrectly.

    Raised when operations are added to an already-applied batch, or when
    a document's label order is verified while a batch still has
    unlabelled nodes pending, or it is snapshotted while a batch is open.
    """


class TransactionError(UpdateError):
    """A durability transaction was used incorrectly.

    Raised for nested transactions on one document, for operations issued
    outside an active transaction, and for commits attempted while an
    update batch still has unapplied operations.
    """


class StorageError(ReproError):
    """A storage backend failed or was misused.

    Raised by the :mod:`repro.store.backends` implementations for
    missing documents, malformed URLs, refused concurrent opens,
    corrupt payloads, and use-after-close; and by snapshot restore when
    a persisted label stream cannot be reattached to its document.
    """


class SnapshotMismatchError(StorageError):
    """A snapshot's label stream disagrees with its re-parsed document.

    Carries the decoded label count and the re-parsed node count so
    callers can report exactly how far the persisted state drifted.
    """

    def __init__(self, message: str, label_count: int = 0,
                 node_count: int = 0):
        super().__init__(message)
        self.label_count = label_count
        self.node_count = node_count


class BackendLockedError(StorageError):
    """A disk backend is already open in another connection or process.

    The SQLite backend holds an exclusive lock for its whole session;
    a second open is refused with this error instead of deadlocking or
    silently interleaving writes.
    """


class JournalError(ReproError):
    """A write-ahead journal file is malformed or was misused.

    Raised for appends without a base snapshot record, operations outside
    an open journal transaction, and corrupt (non-trailing) records found
    while reading a journal back.
    """


class RecoveryError(JournalError):
    """A journal could not be replayed into a consistent document."""
