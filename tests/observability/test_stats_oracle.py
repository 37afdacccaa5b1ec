"""``StatsCollector.refresh`` against the original loop.

``tests/reference_stats.py`` keeps the loop that called ``depth()`` and
``labeled_children()`` per node.  On random documents, and after random
update programs through every surface, the walk must compute the same
fields with the same dict insertion order, so persisted payloads stay
byte-identical.  So must the structural index's maintained counts:
with the index current, statistics are read before a program and after
every step, and the index, not the walk, must answer them.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_stats import counted, fields, reference_refresh
from update_programs import DOCUMENT_XML, programs, run_program, run_step

import repro.ulang
from repro.observability.stats import StatsCollector
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.parser import parse

ORACLE_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
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


# ----------------------------------------------------------------------
# The index's maintained counts
# ----------------------------------------------------------------------

#: One scheme of each family: prefix (QED, Dewey, ORDPATH) and
#: containment (PrePost, whose batch inserts defer).
INDEX_SCHEMES = st.sampled_from(["qed", "dewey", "ordpath", "prepost"])

#: Update-language statements that apply in any state of DOCUMENT_XML's
#: descendants (a statement whose targets are gone does nothing).
ULANG_STATEMENTS = (
    "insert <person id='n'><name>Cy</name></person> "
    "before /site/people/person[1]",
    "insert <item><desc>new<b/></desc></item> into /site/items",
    "insert <b k='1'/> into //desc",
    "move /site/people/person[1] into /site/closed",
    "move /site/closed/*[1] into /site/people",
    "delete /site/items/item[1]/desc",
    "delete /site/closed/*[1]",
    "rename /site/items/item[1] as thing",
    "rename //desc/b as strong",
    "replace value of //person/@id with 'x'",
)


class Rollback(Exception):
    """Raised inside a transaction to roll it back."""


def current(scheme, xml=DOCUMENT_XML):
    """A labelled document whose index is built and current."""
    ldoc = LabeledDocument(parse(xml), make_scheme(scheme))
    ldoc.accelerator().refresh()
    return ldoc


def assert_index_agrees(ldoc):
    """Statistics read now equal the original loop's; the index answers
    them, a batch's pending nodes included."""
    with counted() as calls:
        assert_agrees(ldoc)
    assert calls["walk"] == 0


@ORACLE_SETTINGS
@given(scheme=INDEX_SCHEMES, program=programs(max_size=10),
       surface=st.sampled_from(["per-op", "batch", "commit", "rollback"]))
def test_index_counts_agree_after_every_step(scheme, program, surface):
    ldoc = current(scheme)
    assert_index_agrees(ldoc)
    if surface == "per-op":
        for serial, step in enumerate(program):
            run_step(ldoc, ldoc.updates, step, serial)
            assert_index_agrees(ldoc)
    elif surface == "batch":
        with ldoc.batch() as batch:
            for serial, step in enumerate(program):
                run_step(ldoc, batch, step, serial)
                assert_index_agrees(ldoc)
    else:
        try:
            with ldoc.transaction() as txn:
                for serial, step in enumerate(program):
                    run_step(ldoc, txn, step, serial)
                    assert_index_agrees(ldoc)
                if surface == "rollback":
                    raise Rollback
        except Rollback:
            pass
    assert_index_agrees(ldoc)


@ORACLE_SETTINGS
@given(scheme=INDEX_SCHEMES,
       statements=st.lists(st.sampled_from(ULANG_STATEMENTS), min_size=1,
                           max_size=5),
       runs=st.integers(1, 3))
def test_index_counts_agree_after_update_programs(scheme, statements, runs):
    ldoc = current(scheme)
    assert_index_agrees(ldoc)
    for _ in range(runs):
        repro.ulang.run_program(ldoc, ";\n".join(statements) + ";\n")
        assert_index_agrees(ldoc)


@ORACLE_SETTINGS
@given(scheme=INDEX_SCHEMES,
       program=programs(kinds=("move", "insert-subtree", "delete"),
                        max_size=10))
def test_index_counts_agree_after_moves(scheme, program):
    ldoc = current(scheme)
    assert_index_agrees(ldoc)
    for serial, step in enumerate(program):
        run_step(ldoc, ldoc.updates, step, serial)
        assert_index_agrees(ldoc)


def test_index_counts_on_a_chain_deeper_than_the_recursion_limit():
    # The counts build and the splices walk no recursion; the walk is
    # the oracle here (the original loop's per-node depth() is
    # quadratic on a chain).
    depth = 5000
    ldoc = current("qed", "<a>" + "<b>" * depth + "</b>" * depth + "</a>")
    index = ldoc.accelerator()
    walk = StatsCollector._walk
    with counted() as calls:
        assert index.counts() == walk(ldoc)
        chain = index.named("b")
        ldoc.updates.append_child(chain[-1], "leaf")
        ldoc.updates.insert_attribute(chain[-1], "x", "1")
        assert index.counts() == walk(ldoc)
        ldoc.updates.move(chain[depth - 50], chain[10], 0)
        assert index.counts() == walk(ldoc)
        ldoc.updates.delete(chain[100])
        counts = index.counts()
    assert counts == walk(ldoc)
    # The root, chain[:100], the 50 moved links, the leaf and its x.
    assert sum(counts[2]) == 1 + 100 + 50 + 2
    assert calls == {"build": 1}
