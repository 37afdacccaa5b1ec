"""The single-pass ``StatsCollector.refresh`` against the original loop.

``tests/reference_stats.py`` keeps the loop that called ``depth()`` and
``labeled_children()`` per node.  On random documents, and after random
update programs through every surface, both must compute the same
fields with the same dict insertion order, so persisted payloads stay
byte-identical.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_stats import reference_refresh
from update_programs import DOCUMENT_XML, programs, run_program

from repro.observability.stats import StatsCollector
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.parser import parse

ORACLE_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def fields(stats):
    """Every structural field, dicts as ordered item lists."""
    return (
        stats.node_count, stats.element_count, stats.attribute_count,
        stats.max_depth, stats.depth_total, stats.fanout_max,
        stats.fanout_mean, list(stats.tag_counts.items()),
        list(stats.depth_histogram.items()),
    )


def assert_agrees(ldoc):
    live, oracle = StatsCollector(), StatsCollector()
    live.refresh(ldoc)
    reference_refresh(oracle, ldoc)
    assert fields(live) == fields(oracle)
    assert live.to_payload() == oracle.to_payload()


@ORACLE_SETTINGS
@given(nodes=st.integers(1, 300), seed=st.integers(0, 10**6))
def test_agrees_on_random_documents(nodes, seed):
    assert_agrees(LabeledDocument(random_document(nodes, seed=seed),
                                  make_scheme("qed")))


@ORACLE_SETTINGS
@given(program=programs(max_size=12),
       surface=st.sampled_from(["per-op", "batch", "transaction"]))
def test_agrees_after_update_programs(program, surface):
    ldoc = LabeledDocument(parse(DOCUMENT_XML), make_scheme("qed"))
    if surface == "per-op":
        run_program(ldoc, ldoc.updates, program)
    elif surface == "batch":
        with ldoc.batch() as batch:
            run_program(ldoc, batch, program)
    else:
        with ldoc.transaction() as txn:
            run_program(ldoc, txn, program)
    assert_agrees(ldoc)


def test_agrees_beside_text_comments_and_instructions():
    ldoc = LabeledDocument(parse("<r a='1'><b/>t<!--c--><?p x?></r>"),
                           make_scheme("qed"))
    assert_agrees(ldoc)
    assert StatsCollector.collect(ldoc).fanout_max == 2
