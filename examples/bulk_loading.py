"""Use case from section 5.2: very large documents and overflow.

"An XML repository that is expected to consume very large documents on
a regular basis may consider a labelling scheme that is not subject to
the overflow problem."

This example plays a feed-ingestion scenario: a large document is bulk
loaded, then a hot spot receives a continuous stream of insertions (new
entries always land at the top of one section).  Schemes with fixed
storage fields (DLN here, deliberately configured tight) hit the
section 4 overflow and must relabel the whole store mid-ingest; CDQS —
the survey's "most generic" scheme — absorbs the same stream untouched.

    python examples/bulk_loading.py
"""

import time

from repro import LabeledDocument, make_scheme
from repro.xmlmodel.generator import random_document

BULK_NODES = 800
HOT_INSERTS = 300


def ingest(scheme_name, **scheme_config):
    document = random_document(BULK_NODES, seed=2024)
    started = time.perf_counter()
    ldoc = LabeledDocument(document, make_scheme(scheme_name, **scheme_config))
    bulk_ms = (time.perf_counter() - started) * 1000

    hot_section = ldoc.document.root.element_children()[0]
    started = time.perf_counter()
    for index in range(HOT_INSERTS):
        ldoc.updates.prepend_child(hot_section, f"entry{index}")
    stream_ms = (time.perf_counter() - started) * 1000
    ldoc.verify_order()
    return ldoc, bulk_ms, stream_ms


# ----------------------------------------------------------------------
# Bulk loading, fast path
# ----------------------------------------------------------------------
#
# Even overflow-prone schemes can ingest a hot-spot stream cheaply when
# the insertions arrive together: an UpdateBatch applies the structural
# changes eagerly but defers any labelling that would relabel existing
# nodes, then closes the batch with a *single* consolidated pass.  The
# per-op path below pays one relabel event per colliding insert; the
# batched path pays at most one for the whole stream.

def ingest_batched(scheme_name, **scheme_config):
    document = random_document(BULK_NODES, seed=2024)
    ldoc = LabeledDocument(document, make_scheme(scheme_name, **scheme_config))
    hot_section = ldoc.document.root.element_children()[0]
    started = time.perf_counter()
    with ldoc.batch() as batch:
        for index in range(HOT_INSERTS):
            batch.prepend_child(hot_section, f"entry{index}")
    stream_ms = (time.perf_counter() - started) * 1000
    ldoc.verify_order()
    return ldoc, stream_ms, ldoc.last_batch_result


def fast_path_report():
    print("Bulk loading, fast path: the same hot-spot stream through "
          "UpdateBatch\n")
    for scheme_name, config in [
        ("cdqs", {}),
        ("dln", {"subvalue_bits": 8, "max_sublevels": 6}),
        ("prepost", {}),
    ]:
        ldoc, stream_ms, result = ingest_batched(scheme_name, **config)
        print(f"=== {scheme_name} {config or ''} ===")
        print(f"  batched stream: {stream_ms:6.1f} ms")
        print(f"  fast-path labels: "
              f"{result.labels_assigned - result.deferred_labels}, "
              f"deferred: {result.deferred_labels}")
        print(f"  relabel passes: {result.relabel_passes} "
              f"(vs {result.relabels_avoided + result.relabel_passes} "
              "relabels under per-op application)")
        print(f"  relabel events in the log: {ldoc.log.relabel_events}\n")


def main():
    print(f"Bulk load {BULK_NODES} nodes, then stream {HOT_INSERTS} "
          "insertions into one hot spot\n")
    scenarios = [
        ("cdqs", {}),
        ("dln", {"subvalue_bits": 8, "max_sublevels": 6}),
        ("xrel", {"gap": 16}),
    ]
    for scheme_name, config in scenarios:
        ldoc, bulk_ms, stream_ms = ingest(scheme_name, **config)
        print(f"=== {scheme_name} {config or ''} ===")
        print(f"  bulk labelling: {bulk_ms:7.1f} ms")
        print(f"  hot-spot stream: {stream_ms:6.1f} ms")
        print(f"  relabel events: {ldoc.log.relabel_events}")
        print(f"  nodes relabelled mid-ingest: {ldoc.log.relabeled_nodes}")
        print(f"  overflow events: {ldoc.log.overflow_events}")
        if ldoc.log.relabel_events == 0:
            print("  -> overflow-free: ingestion never paused\n")
        else:
            print("  -> the section 4 overflow problem: the whole store "
                  "was relabelled during ingestion\n")
    fast_path_report()


if __name__ == "__main__":
    main()
