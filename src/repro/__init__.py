"""repro — dynamic XML labelling schemes and their evaluation framework.

A full reproduction of O'Connor & Roantree, "Desirable Properties for XML
Update Mechanisms" (Updates in XML, EDBT 2010 Workshops): every surveyed
labelling scheme implemented from scratch over an in-package XML tree
substrate, plus the section 5 evaluation framework that regenerates the
Figure 7 property matrix empirically.

Quickstart::

    from repro import LabeledDocument, make_scheme, parse

    doc = parse("<a><b/><c/></a>")
    ldoc = LabeledDocument(doc, make_scheme("qed"))
    b = doc.root.element_children()[0]
    ldoc.updates.insert_after(b, "new")  # no relabelling, ever
    ldoc.verify_order()
"""

from repro.durability import (
    FaultInjector,
    Journal,
    Transaction,
    recover,
)
from repro.schemes import (
    FIGURE7_ORDER,
    LabelingScheme,
    SchemeMetadata,
    available_schemes,
    extension_schemes,
    figure7_schemes,
    make_scheme,
)
from repro.observability import (
    HealthReport,
    InMemorySpanExporter,
    IntervalSampler,
    JSONLinesSpanExporter,
    MetricsRegistry,
    OpEvent,
    OpLog,
    Tracer,
    configure_oplog,
    get_oplog,
    get_registry,
    get_tracer,
    instrument,
    load_trace,
    oplog_enabled,
    render_health,
    render_metrics,
    render_openmetrics,
    render_span_tree,
    run_health,
    start_metrics_server,
    summarize_trace,
    tracing_enabled,
)
from repro.store import (
    StorageBackend,
    XMLRepository,
    open_repository,
    suggest_scheme,
)
from repro.updates import (
    BatchResult,
    LabeledDocument,
    UpdateBatch,
    UpdateResult,
    VersionedDocument,
    apply_batch,
)
from repro.xmlmodel import Document, NodeKind, XMLNode, parse, serialize

__version__ = "1.1.0"

__all__ = [
    "BatchResult",
    "Document",
    "FIGURE7_ORDER",
    "FaultInjector",
    "HealthReport",
    "InMemorySpanExporter",
    "IntervalSampler",
    "JSONLinesSpanExporter",
    "Journal",
    "LabeledDocument",
    "LabelingScheme",
    "MetricsRegistry",
    "NodeKind",
    "OpEvent",
    "OpLog",
    "SchemeMetadata",
    "StorageBackend",
    "Tracer",
    "Transaction",
    "UpdateBatch",
    "UpdateResult",
    "VersionedDocument",
    "XMLNode",
    "XMLRepository",
    "apply_batch",
    "available_schemes",
    "configure_oplog",
    "get_oplog",
    "get_registry",
    "get_tracer",
    "instrument",
    "load_trace",
    "open_repository",
    "oplog_enabled",
    "render_health",
    "render_metrics",
    "render_openmetrics",
    "render_span_tree",
    "run_health",
    "start_metrics_server",
    "suggest_scheme",
    "summarize_trace",
    "tracing_enabled",
    "extension_schemes",
    "figure7_schemes",
    "make_scheme",
    "parse",
    "recover",
    "serialize",
]
