"""Dynamic updates: the labelled document, operations and workloads."""

from repro.updates.batch import BatchResult, UpdateBatch, apply_batch
from repro.updates.document import LabeledDocument, UpdateLog
from repro.updates.results import UpdateResult, UpdateSurface
from repro.updates.versioning import (
    Annotation,
    Revision,
    RevisionDiff,
    VersionedDocument,
)
from repro.updates.operations import (
    Operation,
    OpKind,
    adopt_subtree,
    apply_operation,
    apply_program,
    dispatch_operation,
)
from repro.updates.workloads import (
    WorkloadResult,
    append_insertions,
    churn,
    prepend_insertions,
    random_insertions,
    skewed_insertions,
    uniform_insertions,
)

__all__ = [
    "Annotation",
    "BatchResult",
    "LabeledDocument",
    "OpKind",
    "Operation",
    "Revision",
    "RevisionDiff",
    "UpdateBatch",
    "UpdateLog",
    "UpdateResult",
    "UpdateSurface",
    "VersionedDocument",
    "WorkloadResult",
    "adopt_subtree",
    "append_insertions",
    "apply_batch",
    "apply_operation",
    "apply_program",
    "churn",
    "dispatch_operation",
    "prepend_insertions",
    "random_insertions",
    "skewed_insertions",
    "uniform_insertions",
]
