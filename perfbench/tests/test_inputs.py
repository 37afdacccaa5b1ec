"""Seeded inputs: the same seed gives the same inputs."""

import itertools
import random

from inputs import (
    catalog_queries,
    derive_seed,
    oltp_requests,
    relabel_programs,
    xmark_text,
)


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_same_seed_same_document():
    assert xmark_text(2, 5).xml == xmark_text(2, 5).xml
    assert xmark_text(2, 5).xml != xmark_text(2, 6).xml


def test_generated_node_count_matches_the_parsed_document():
    from repro.xmlmodel.parser import parse

    for scale, seed in ((0.5, 1), (2, 3)):
        doc = xmark_text(scale, seed)
        assert parse(doc.xml).labeled_size() == doc.labelled_nodes


def test_same_seed_same_oltp_operation_sequence():
    doc = xmark_text(2, 4)
    first = list(itertools.islice(oltp_requests(doc, 9), 500))
    again = list(itertools.islice(oltp_requests(doc, 9), 500))
    other = list(itertools.islice(oltp_requests(doc, 10), 500))
    assert first == again
    assert first != other


def test_oltp_stream_never_retracts_a_missing_bid():
    doc = xmark_text(1, 2)
    bidders = dict(doc.bidders)
    kinds = set()
    for request in itertools.islice(oltp_requests(doc, 3), 3000):
        kinds.add(request.kind)
        if request.kind == "bid":
            bidders[request.target] += 1
        elif request.kind == "retract":
            assert bidders[request.target] > 0
            bidders[request.target] -= 1
        elif request.kind == "read-bids":
            assert request.expected == bidders[request.target]
    assert kinds == {"bid", "retract", "read-bids", "read-person"}


def test_same_seed_same_programs_and_supply_ends():
    doc = xmark_text(0.3, 1)
    first = list(relabel_programs(doc, 7))
    assert first == list(relabel_programs(doc, 7))
    assert first != list(relabel_programs(doc, 8))
    # One program per item description, then the stream ends.
    assert len(first) == len(doc.items)
    assert all(program.source.count(";") == 5 for program in first)


def test_same_seed_same_catalog_queries():
    doc = xmark_text(1, 1)
    first = catalog_queries(doc, random.Random(3))
    assert first == catalog_queries(doc, random.Random(3))
    assert len({query.kind for query in first}) == len(first) == 8
