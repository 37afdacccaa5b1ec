"""The order-maintained index: its invariants and what a splice costs.

``accelerator.splice`` events carry ``touched``: the per-node and
per-block records the splice rewrote one by one.  A bid (two inserts
and a text update) must touch a bounded number of them whatever the
document size — the Persistent Labels property (section 5.1) applied
to the index itself — and inserts piling up at one spot, which close
tag gaps again and again, must stay within N log N in total.  Every
scenario ends equal, node for node, to the dense index of
``tests/reference_accelerator.py`` built from scratch.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import labeled
from reference_accelerator import (DenseAccelerator, assert_value_maps,
                                   attribute_pairs)
from repro.axes import accelerator as accelerator_module
from repro.axes.accelerator import AxisAccelerator
from repro.axes.xpath import xpath
from repro.axes.xpath_ast import AXES
from repro.observability.ops import oplog_enabled
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse, parse_fragment
from repro.xmlmodel.xmark import xmark_document
from update_programs import DOCUMENT_XML, programs, run_step

#: Records one bid may touch: its two nodes and the windows they extend
#: (the auction's, and the chain above it when it is the last one).
BID_TOUCH_BOUND = 16


def same(got, expected):
    return len(got) == len(expected) and all(
        left is right for left, right in zip(got, expected))


def assert_invariants(index):
    """Blocks, directory, tags, name runs and windows agree."""
    nodes = index.nodes()
    tags = [tag for block in index._blocks for tag in block.tags]
    assert all(low < high for low, high in zip(tags, tags[1:]))
    assert index._firsts == [block.tags[0] for block in index._blocks]
    assert all(0 < len(block.nodes) <= 2 * accelerator_module._BLOCK
               for block in index._blocks)
    assert [index._tag[node] for node in nodes] == tags
    assert len(index._tag) == len(nodes)
    for name, run in index._names.items():
        assert same(run.nodes, [node for node in nodes if node.name == name])
        assert run.tags == [index._tag[node] for node in run.nodes]
    assert set(index._names) == {node.name for node in nodes}
    assert all(end is not node for node, end in index._last.items())


def assert_matches_dense(ldoc, contexts=None):
    index = ldoc.accelerator()
    dense = DenseAccelerator(ldoc)
    assert same(index.nodes(), dense.nodes())
    assert_invariants(index)
    pairs = attribute_pairs(dense.nodes(), limit=8)
    for node in contexts if contexts is not None else dense.nodes():
        for axis in AXES:
            for name in (None, node.name):
                assert same(index.evaluate(axis, node, name),
                            dense.evaluate(axis, node, name)), (axis, name)
        for axis in ("child", "descendant", "descendant-or-self",
                     "following"):
            for name in (None, node.name):
                for pair in pairs:
                    assert same(index.evaluate(axis, node, name, pair),
                                dense.evaluate(axis, node, name, pair)), (
                        axis, name, pair)
    assert_value_maps(index, dense)


def built(ldoc):
    index = ldoc.accelerator()
    index.nodes()
    return index


def splice_events(log):
    return log.events(kind="accelerator.splice")


@pytest.mark.parametrize("scheme_name", ["qed", "ordpath", "vector"])
def test_a_bid_touches_a_bounded_number_of_records(scheme_name):
    touched = {}
    for scale in (1, 4, 16):
        ldoc = LabeledDocument(xmark_document(scale=scale, seed=12),
                               make_scheme(scheme_name))
        built(ldoc)
        auctions = xpath(ldoc, "/site/open_auctions/open_auction")
        worst = 0
        for auction in (auctions[0], auctions[len(auctions) // 2],
                        auctions[-1]):
            with oplog_enabled(slow_threshold_s=0.0) as log:
                with ldoc.transaction() as txn:
                    bidder = txn.append_child(auction, "bidder").node
                    increase = txn.append_child(bidder, "increase").node
                    txn.set_text(increase, "12.50")
            events = splice_events(log)
            assert [event.attributes["kind"] for event in events] == [
                "insert", "insert"]
            worst = max(worst, sum(event.attributes["touched"]
                                   for event in events))
        touched[scale] = worst
        assert_matches_dense(ldoc, contexts=auctions[:3] + [bidder])
    assert max(touched.values()) <= BID_TOUCH_BOUND, touched


@pytest.mark.parametrize("scheme_name", ["qed", "ordpath", "vector"])
def test_inserts_at_one_spot_stay_within_n_log_n(scheme_name, monkeypatch):
    # Appending under one element that has following content puts every
    # new node right before the same successor: each insert halves the
    # tag gap there until it closes and the walk relabels.
    inserts = 2000
    ldoc = labeled(parse(
        "<site><people><person/></people><items><item/></items></site>"),
        scheme_name)
    built(ldoc)
    people = ldoc.document.root.element_children()[0]
    spreads = []
    spread = AxisAccelerator._spread

    def counted(self, *args):
        spreads.append(args)
        return spread(self, *args)

    monkeypatch.setattr(AxisAccelerator, "_spread", counted)
    total = 0
    with oplog_enabled(slow_threshold_s=0.0, capacity=4 * inserts) as log:
        for number in range(inserts):
            ldoc.updates.append_child(people, "person")
            if number % 500 == 499:
                assert_invariants(ldoc.accelerator())
        total = sum(event.attributes["touched"]
                    for event in splice_events(log))
        assert len(splice_events(log)) == inserts
    assert spreads, "no tag gap ever closed"
    assert total <= inserts * math.log2(inserts), total
    assert_matches_dense(ldoc, contexts=[people, ldoc.document.root])


def test_subtree_cuts_span_blocks_and_merge_them():
    # ~2,400 nodes in ten blocks: cut whole regions (several blocks),
    # move a subtree across, graft one back, and roll it all back.
    ldoc = LabeledDocument(xmark_document(scale=4, seed=3),
                           make_scheme("qed"))
    index = built(ldoc)
    blocks = len(index._blocks)
    assert blocks > 4
    root = ldoc.document.root
    regions = root.element_children()[0]
    people = next(node for node in root.element_children()
                  if node.name == "people")
    with pytest.raises(RuntimeError):
        with ldoc.transaction():
            ldoc.updates.delete(regions)
            assert len(index._blocks) < blocks
            assert_invariants(index)
            ldoc.updates.move(people, root, len(root.children) - 1)
            assert_invariants(index)
            ldoc.updates.insert_subtree(
                people, 0, parse_fragment("<person><name>x</name></person>"))
            assert_matches_dense(ldoc, contexts=[root, people])
            raise RuntimeError("roll back")
    assert_matches_dense(ldoc, contexts=[root, regions, people])


def test_a_block_splits_when_it_overfills():
    ldoc = labeled(parse("<a><b/><c/></a>"), "ordpath")
    index = built(ldoc)
    b = ldoc.document.root.element_children()[0]
    for _ in range(2 * accelerator_module._BLOCK + 1):
        ldoc.updates.append_child(b, "x")
    assert len(index._blocks) == 2
    assert_matches_dense(ldoc, contexts=[ldoc.document.root, b])


def test_a_rename_moves_the_node_between_name_lists():
    ldoc = labeled(parse("<a><b/><c/><b/></a>"), "qed")
    index = built(ldoc)
    first = ldoc.document.root.element_children()[0]
    with pytest.raises(RuntimeError):
        with ldoc.transaction():
            ldoc.updates.rename(first, "c")
            assert [node.name for node in index.named("c")] == ["c", "c"]
            assert len(index.named("b")) == 1
            raise RuntimeError("roll back")
    assert index.named("b")[0] is first
    assert len(index.named("c")) == 1
    assert_matches_dense(ldoc)


@pytest.mark.parametrize("scheme_name", ["qed", "dewey", "lsdx", "sector"])
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(program=programs(max_size=8))
def test_tiny_blocks_and_gaps_under_random_programs(scheme_name, program,
                                                    monkeypatch):
    # Blocks of 2 and a tag gap of 2 make every splice cross blocks,
    # split, merge or relabel; every step must still match the dense
    # index, per operation, in a batch and through a rollback.
    monkeypatch.setattr(accelerator_module, "_BLOCK", 2)
    monkeypatch.setattr(accelerator_module, "_TAG_GAP", 2)
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    built(ldoc)
    for serial, step in enumerate(program):
        run_step(ldoc, ldoc.updates, step, serial)
        assert_matches_dense(ldoc)
    with ldoc.batch() as batch:
        for serial, step in enumerate(program, len(program)):
            run_step(ldoc, batch, step, serial)
    assert_matches_dense(ldoc)
    with pytest.raises(RuntimeError):
        with ldoc.transaction() as txn:
            for serial, step in enumerate(program, 2 * len(program)):
                run_step(ldoc, txn, step, serial)
                assert_matches_dense(ldoc)
            raise RuntimeError("roll back")
    assert_matches_dense(ldoc)
