"""One instrumentation event per site: the op-log and the tracer agree.

Every instrumented site goes through ``instrument()``, so a workload
that reaches every site must show both consumers the same kinds — the
kinds ``docs/API.md`` lists — with each op event linked to a span of the
same name and scheme, and an error on one side an error on the other.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.durability.faults import InjectedFault, get_injector
from repro.durability.journal import Journal, recover
from repro.errors import StaleIndexError
from repro.observability.ops import oplog_enabled
from repro.observability.tracing import (
    AlwaysOnSampler,
    InMemorySpanExporter,
    tracing_enabled,
)
from repro.schemes.registry import make_scheme
from repro.store import open_repository
from repro.store.indexes import DocumentIndexes
from repro.store.joins import nested_loop_join, semi_join, stack_tree_join
from repro.store.twig import TwigMatcher, descendant, twig
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse

API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"

SAMPLE = ("<library><shelf><book/><book/></shelf>"
          "<shelf><book/></shelf></library>")


def labelled(scheme: str = "dewey", **config) -> LabeledDocument:
    return LabeledDocument(parse(SAMPLE), make_scheme(scheme, **config))


# -- the workload, one step per subsystem ------------------------------


def updates(tmp_path: Path) -> None:
    """Insert, graft, delete and move on Dewey and on overflowing ORDPATH."""
    for ldoc in (labelled("dewey"), labelled("ordpath", max_magnitude=7)):
        root = ldoc.document.root
        first, second = root.element_children()
        book = first.element_children()[0]
        for index in range(12):
            ldoc.updates.insert_before(book, f"n{index}")
        ldoc.updates.insert_subtree(second, 0,
                                    parse("<box><book/></box>").root)
        ldoc.updates.move(second.element_children()[-1], first, 0)
        ldoc.updates.delete(first.element_children()[-1])
        assert ldoc.log.relabel_events
        ldoc.verify_order()


def batches(tmp_path: Path) -> None:
    """A batch that needs a consolidated relabel, and a rolled-back one."""
    ldoc = labelled("dewey")
    book = ldoc.document.root.element_children()[0].element_children()[0]
    with ldoc.batch() as batch:
        batch.insert_before(book, "early")
    assert ldoc.last_batch_result.relabel_passes == 1
    batch = ldoc.batch()
    batch.append_child(ldoc.document.root, "doomed")
    batch.rollback()


def transactions(tmp_path: Path) -> None:
    """A commit, and a rollback forced by an injected commit fault."""
    ldoc = labelled("qed")
    root = ldoc.document.root
    with ldoc.transaction() as txn:
        txn.append_child(root, "kept")
    get_injector().arm("transaction.commit")
    try:
        with pytest.raises(InjectedFault):
            with ldoc.transaction() as txn:
                txn.append_child(root, "lost")
    finally:
        get_injector().reset()


def journal(tmp_path: Path) -> None:
    """Journal appends and fsyncs, then recovery."""
    ldoc = labelled("ordpath")
    path = tmp_path / "events.journal"
    with Journal.create(path, ldoc, name="lib") as log:
        with ldoc.transaction(journal=log) as txn:
            txn.append_child(ldoc.document.root, "logged")
    assert recover(path).transactions_applied == 1


def storage(tmp_path: Path) -> None:
    """sqlite open/put/get/delete/point query, and repository queries."""
    url = f"sqlite:///{tmp_path / 'events.db'}"
    with open_repository(url) as repository:
        stored = repository.add("lib", SAMPLE, scheme="dewey")
        assert len(stored.xpath("//book")) == 3
        assert len(stored.descendant_path(["shelf", "book"])) == 3
    with open_repository(url) as repository:
        assert len(repository.point_query("lib", "book")) == 3
        repository.get("lib")
        repository.remove("lib")


def accelerator(tmp_path: Path) -> None:
    """An index build, splices, and a stale refusal."""
    ldoc = labelled("qed")
    index = ldoc.accelerator()
    index.refresh()
    inserted = ldoc.updates.append_child(ldoc.document.root, "spliced").node
    ldoc.updates.delete(inserted)
    ldoc.unsubscribe_deltas(index)
    ldoc.updates.append_child(ldoc.document.root, "unseen")
    with pytest.raises(StaleIndexError):
        index.evaluate("descendant", ldoc.document.root)


def joins(tmp_path: Path) -> None:
    """The three structural joins and a twig match."""
    ldoc = labelled("dewey")
    indexes = DocumentIndexes(ldoc)
    shelves, books = indexes.by_name("shelf"), indexes.by_name("book")
    scheme = ldoc.scheme
    assert len(nested_loop_join(scheme, shelves, books)) == 3
    assert len(stack_tree_join(scheme, shelves, books)) == 3
    assert len(semi_join(scheme, shelves, books)) == 3
    assert len(TwigMatcher(ldoc).match(twig("shelf", descendant("book")))) == 2


#: Every event kind, and the workload step that reaches it.
EVENTS = {
    "document.insert": updates,
    "document.insert_subtree": updates,
    "document.delete": updates,
    "document.move": updates,
    "document.relabel": updates,
    "batch.apply": batches,
    "batch.rollback": batches,
    "transaction.commit": transactions,
    "transaction.rollback": transactions,
    "journal.append": journal,
    "journal.fsync": journal,
    "journal.recover": journal,
    "backend.open": storage,
    "backend.put": storage,
    "backend.get": storage,
    "backend.delete": storage,
    "backend.point_query": storage,
    "repository.ingest": storage,
    "repository.xpath": storage,
    "repository.path_query": storage,
    "store.join.nested_loop": joins,
    "store.join.stack_tree": joins,
    "store.join.semi": joins,
    "store.twig.match": joins,
    "accelerator.build": accelerator,
    "accelerator.splice": accelerator,
    "accelerator.stale_refusal": accelerator,
}


def run_steps(tmp_path: Path) -> None:
    for step in dict.fromkeys(EVENTS.values()):
        workdir = tmp_path / step.__name__
        workdir.mkdir()
        step(workdir)


def run_workload(tmp_path: Path, oplog: bool, tracing: bool):
    """Run every step with the chosen consumers on; (op events, spans)."""
    exporter = InMemorySpanExporter()
    with oplog_enabled(capacity=65536) as log:
        log.enabled = oplog
        if tracing:
            with tracing_enabled(exporter, sampler=AlwaysOnSampler(),
                                 capture_metrics=False):
                run_steps(tmp_path)
        else:
            run_steps(tmp_path)
        events = log.events()
    return events, exporter.spans


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    """The workload with the op-log and the tracer both on."""
    return run_workload(tmp_path_factory.mktemp("both"),
                        oplog=True, tracing=True)


def documented_kinds():
    """The kinds in the events table of docs/API.md."""
    text = API_DOC.read_text(encoding="utf-8")
    section = text.split("### Instrumentation events", 1)[1]
    table = section.split("| --- | --- | --- |", 1)[1]
    kinds = set()
    for line in table.splitlines()[1:]:
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        kinds.update(re.findall(r"`([a-z_.]+)`", first_cell))
    return kinds


def test_table_matches_the_api_doc():
    assert documented_kinds() == set(EVENTS)


def test_both_consumers_see_exactly_the_table(both):
    events, spans = both
    assert {event.kind for event in events} == set(EVENTS)
    assert {span.name for span in spans} == set(EVENTS)


@pytest.mark.parametrize("kind", sorted(EVENTS))
def test_op_event_links_its_own_span(kind, both):
    events, spans = both
    by_id = {span.span_id: span for span in spans}
    of_kind = [event for event in events if event.kind == kind]
    assert of_kind
    for event in of_kind:
        span = by_id[event.span_id]
        assert span.name == kind
        assert span.trace_id == event.trace_id
        assert span.attributes.get("scheme") == event.scheme
        assert span.attributes.get("document") == event.document
        assert span.attributes.get("nodes", 0) == event.nodes


def test_each_span_has_one_op_event(both):
    events, spans = both
    linked = [event.span_id for event in events]
    assert len(linked) == len(set(linked)) == len(spans)


def test_raising_event_is_an_error_on_both_sides(both):
    events, spans = both
    by_id = {span.span_id: span for span in spans}
    errors = [event for event in events if event.outcome == "error"]
    assert {event.kind for event in errors} == {
        "transaction.commit", "accelerator.stale_refusal",
    }
    for event in errors:
        assert by_id[event.span_id].status == "error"
    assert {span.span_id for span in spans if span.status == "error"} == {
        event.span_id for event in errors
    }
    (refusal,) = [event for event in errors
                  if event.kind == "accelerator.stale_refusal"]
    assert refusal.error_type == "StaleIndexError"
    assert refusal.attributes["message"]


def test_overflow_and_consolidated_relabel_reach_the_span(both):
    _events, spans = both
    inserts = [span for span in spans if span.name == "document.insert"]
    assert any(span.attributes["overflow"] for span in inserts
               if span.attributes["scheme"] == "ordpath")
    relabels = [span for span in spans if span.name == "document.relabel"]
    assert any(span.attributes.get("consolidated") for span in relabels)


@pytest.mark.parametrize("consumer", ["oplog", "tracer"])
def test_one_consumer_alone_still_gets_every_event(consumer, tmp_path,
                                                   both):
    events, spans = run_workload(tmp_path, oplog=consumer == "oplog",
                                 tracing=consumer == "tracer")
    if consumer == "oplog":
        assert not spans
        assert [event.kind for event in events] == [
            event.kind for event in both[0]]
        assert all(event.span_id is None for event in events)
    else:
        assert not events
        assert sorted(span.name for span in spans) == sorted(
            span.name for span in both[1])
