"""Statistics from the structural index, and the states it refuses.

While a document's index is current, ``StatsCollector.refresh`` reads
the index's maintained counts, a batch's pending nodes included; a
writing workload then walks the document at no ``check_update`` and no
checkpoint (a deterministic growth gate: zero walks at every document
size).  While the index cannot vouch for the document (no index yet, an
index behind the document), the walk answers, and a statistics read
builds nothing and counts no refusal; an EXPLAIN plan is refused by an
index behind the document as a query is.
"""

import pytest
from reference_stats import counted, fields, reference_refresh

import repro.ulang
from repro.axes.xpath import xpath
from repro.errors import StaleIndexError
from repro.observability.explain import explain_query
from repro.observability.metrics import get_registry
from repro.observability.stats import StatsCollector
from repro.schemes.registry import make_scheme
from repro.store.repository import open_repository
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.xmark import xmark_document

LIBRARY_XML = (
    "<library><shelf id='s1'><book><title>a</title></book>"
    "<book><title>b</title></book></shelf>"
    "<shelf><book><title>c</title></book></shelf></library>"
)

EXPLAINED = ("//book/title", "/library/shelf[@id='s1']//title", "//*")


def counter(name):
    return get_registry().counter(name).value


def pending_batch(ldoc):
    """A batch holding pending nodes, opened after the index is built."""
    ldoc.accelerator().refresh()
    batch = ldoc.batch()  # PrePost defers every batch insert
    annex = batch.append_child(ldoc.document.root, "annex").node
    batch.insert_attribute(annex, "id", "x")
    batch.append_child(annex, "shelf")
    assert batch.pending == 3
    return batch


def detached_index(ldoc):
    index = ldoc.accelerator()
    index.refresh()
    StatsCollector.collect(ldoc)  # the index's counts are built
    ldoc.unsubscribe_deltas(index)
    ldoc.updates.append_child(ldoc.document.root, "annex")
    assert index.stale
    return index


def no_index(ldoc):
    ldoc.updates.append_child(ldoc.document.root, "annex")
    assert ldoc._accelerator is None


@pytest.mark.parametrize("state", [detached_index, no_index])
def test_refused_states_walk_and_build_nothing(state):
    ldoc = LabeledDocument(parse(LIBRARY_XML), make_scheme("prepost"))
    state(ldoc)
    builds = counter("axes.accelerator.builds")
    refusals = counter("axes.accelerator.stale_errors")
    oracle = StatsCollector()
    reference_refresh(oracle, ldoc)
    with counted() as calls:
        stats = StatsCollector.collect(ldoc)
    assert calls == {"walk": 1}
    assert fields(stats) == fields(oracle)
    assert stats.to_payload() == oracle.to_payload()
    assert counter("axes.accelerator.stale_errors") == refusals
    if state is detached_index:
        # EXPLAIN runs the query path, which refuses the index: once
        # per plan, as a query is refused.
        for path in EXPLAINED:
            with pytest.raises(StaleIndexError):
                explain_query(ldoc, path, stats=stats)
        assert (counter("axes.accelerator.stale_errors")
                == refusals + len(EXPLAINED))
    else:
        # A plain plan of a document without an index builds none.
        with counted() as calls:
            plans = [explain_query(ldoc, path) for path in EXPLAINED]
        assert calls == {"walk": len(EXPLAINED)}
        expected = [explain_query(ldoc, path, stats=oracle)
                    for path in EXPLAINED]
        assert ([[step.estimated_rows for step in plan.steps]
                 for plan in plans]
                == [[step.estimated_rows for step in plan.steps]
                    for plan in expected])
        assert counter("axes.accelerator.stale_errors") == refusals
    assert counter("axes.accelerator.builds") == builds


def test_a_pending_batch_counts_from_the_index():
    # The index holds the pending nodes from their attach on: its counts
    # answer, equal to the original loop's, and EXPLAIN reads the index.
    ldoc = LabeledDocument(parse(LIBRARY_XML), make_scheme("prepost"))
    batch = pending_batch(ldoc)
    builds = counter("axes.accelerator.builds")
    refusals = counter("axes.accelerator.stale_errors")
    oracle = StatsCollector()
    reference_refresh(oracle, ldoc)
    with counted() as calls:
        stats = StatsCollector.collect(ldoc)
        plans = [explain_query(ldoc, path) for path in EXPLAINED]
    assert calls == {"build": 1}
    assert fields(stats) == fields(oracle)
    assert stats.to_payload() == oracle.to_payload()
    assert stats.tag_counts["annex"] == 1
    assert {step.strategy for plan in plans for step in plan.steps} == {
        "accelerator-window"}
    assert counter("axes.accelerator.builds") == builds
    assert counter("axes.accelerator.stale_errors") == refusals
    batch.apply()


def test_a_rebuilt_index_counts_afresh():
    ldoc = LabeledDocument(parse(LIBRARY_XML), make_scheme("qed"))
    index = detached_index(ldoc)
    ldoc.subscribe_deltas(index)
    index.refresh()
    oracle = StatsCollector()
    reference_refresh(oracle, ldoc)
    with counted() as calls:
        stats = StatsCollector.collect(ldoc)
    assert calls == {"build": 1}
    assert fields(stats) == fields(oracle)


def relabel_program(stored, number):
    """A relabel-batch-style program over an XMark document."""
    person = stored.xpath("/site/people/person")[number]
    auction = stored.xpath("/site/open_auctions/open_auction")[-1]
    item = stored.xpath("//item[description]")[number]
    return (
        f"insert <person id='new{number}'><name>N</name></person> "
        f"before /site/people/person[@id='{person.attribute('id').value}'];\n"
        f"insert <open_auction id='oa_new{number}'><initial>1.00</initial>"
        f"</open_auction> into /site/open_auctions;\n"
        f"move /site/open_auctions/open_auction[1] "
        f"into /site/closed_auctions;\n"
        f"delete /site/regions/{item.parent.name}/item"
        f"[@id='{item.attribute('id').value}']/description;\n"
        f"replace value of /site/open_auctions/open_auction"
        f"[@id='{auction.attribute('id').value}']/initial with '2.00';\n"
    )


@pytest.mark.parametrize("scale", [1, 4, 16])
@pytest.mark.parametrize("scheme,engine", [("qed", "sqlite"),
                                           ("dewey", "pagefile")])
def test_writes_walk_nothing_once_the_index_counts(monkeypatch, tmp_path,
                                                   scheme, engine, scale):
    reads = []
    refresh = StatsCollector.refresh

    def counted_refresh(stats, ldoc):
        reads.append(ldoc)
        refresh(stats, ldoc)

    monkeypatch.setattr(StatsCollector, "refresh", counted_refresh)
    url = f"{engine}:///{tmp_path}/store.{engine}"
    with open_repository(url) as repository:
        stored = repository.add("auction", xmark_document(scale=scale,
                                                          seed=12),
                                scheme=scheme)
        ldoc = stored.ldoc
        auctions = stored.xpath("/site/open_auctions/open_auction")
        builds = counter("axes.accelerator.builds")
        with counted() as calls:
            stored.stats.refresh(ldoc)  # the first read builds the counts
            for number in range(3):
                with repository.transaction("auction") as txn:
                    bidder = txn.append_child(auctions[number],
                                              "bidder").node
                    increase = txn.append_child(bidder, "increase").node
                    txn.set_text(increase, f"{number}.50")
                program = repro.ulang.parse_program(
                    relabel_program(stored, number))
                assert not stored.check_update(program).exit_code
                repro.ulang.run_program(ldoc, program)
                assert xpath(ldoc, f"//person[@id='new{number}']/name")
                repository.persist("auction")
        assert calls == {"build": 1}
        assert len(reads) >= 1 + 3  # each round read statistics
        assert counter("axes.accelerator.builds") == builds
        oracle = StatsCollector()
        reference_refresh(oracle, ldoc)
        assert fields(stored.stats) == fields(oracle)
