"""The batch's consolidated pass relabels only below the parents it changed.

``UpdateBatch.apply`` asks the scheme's ``relabel_below`` for the
subtrees under the topmost parents the batch changed.  The oracle is the
whole-document pass it replaced, ``scheme.label_tree(document)``: from a
freshly labelled document every batch that runs a pass must end on
exactly those labels, with the same ``relabeled_nodes``.  From a
document that per-operation updates left with gaps, the pass must keep
every label outside the changed subtrees and relabel inside them by
``label_tree``'s rule from each parent's current label; here the oracle
is a parent set recorded from the calls the test issues and a
relabelling written out in the test.
"""

from __future__ import annotations

import copy
import random

import pytest

from conftest import all_scheme_names, labeled
from repro.durability.faults import InjectedFault, get_injector
from repro.observability.explain import explain_batch
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse, parse_fragment
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import xmark_document
from update_programs import DOCUMENT_XML, KINDS, run_program

#: The schemes whose batches defer (and so run a pass) on this document.
DEFERRING_SCHEMES = ["prepost", "xrel", "sector", "dewey", "cohen", "prime"]

#: Prefix schemes whose per-operation updates leave non-canonical labels.
GAPPED_SCHEMES = ["dewey", "cohen"]

SEEDS = range(60)


def random_steps(seed):
    rng = random.Random(seed)
    return [(rng.choice(KINDS), rng.randrange(10**6), rng.randrange(10**6))
            for _ in range(rng.randint(1, 8))]


def assert_index_matches(ldoc):
    assert ldoc._label_index == {
        label: node_id for node_id, label in ldoc.labels.items()}


def oracle_relabels(ldoc, before):
    """``relabeled_nodes`` of the whole-document pass from ``before``."""
    full = ldoc.scheme.label_tree(ldoc.document)
    return sum(1 for node_id, label in full.items()
               if node_id in before and before[node_id] != label)


def apply_counted(ldoc, batch):
    """Apply ``batch``; return (labels before, the pass's relabel count)."""
    before = dict(ldoc.labels)
    relabeled = ldoc.log.relabeled_nodes
    batch.apply()
    return before, ldoc.log.relabeled_nodes - relabeled


class ParentRecorder:
    """A batch surface that notes the parents each structural call changes.

    This is the specification of the parent set, kept apart from the
    batch's own bookkeeping: an insert changes its parent's children, a
    delete its parent's, a move both parents'.
    """

    def __init__(self, batch):
        self.batch = batch
        self.parents = {}

    def _note(self, node):
        self.parents[node.node_id] = node

    def insert_before(self, reference, name):
        self._note(reference.parent)
        return self.batch.insert_before(reference, name)

    def insert_after(self, reference, name):
        self._note(reference.parent)
        return self.batch.insert_after(reference, name)

    def append_child(self, parent, name):
        self._note(parent)
        return self.batch.append_child(parent, name)

    def prepend_child(self, parent, name):
        self._note(parent)
        return self.batch.prepend_child(parent, name)

    def insert_attribute(self, element, name, value):
        self._note(element)
        return self.batch.insert_attribute(element, name, value)

    def insert_subtree(self, parent, index, fragment):
        self._note(parent)
        return self.batch.insert_subtree(parent, index, fragment)

    def delete(self, node):
        self._note(node.parent)
        return self.batch.delete(node)

    def move(self, node, new_parent, index):
        self._note(node.parent)
        self._note(new_parent)
        return self.batch.move(node, new_parent, index)

    def __getattr__(self, name):  # content updates change no parent
        return getattr(self.batch, name)


def expected_labels(ldoc, before, parents):
    """``before``, with every subtree below a topmost attached member of
    ``parents`` relabelled by ``label_tree``'s rule from its label."""
    scheme = ldoc.scheme
    root = ldoc.document.root

    def attached(node):
        while node.parent is not None:
            node = node.parent
        return node is root

    def relabel(node, label):
        children = node.labeled_children()
        components = scheme.initial_child_components(len(children))
        for child, component in zip(children, components):
            expected[child.node_id] = label + (component,)
            relabel(child, expected[child.node_id])

    expected = dict(before)
    for node in parents.values():
        if attached(node) and not any(ancestor.node_id in parents
                                      for ancestor in node.ancestors()):
            relabel(node, before[node.node_id])
    return expected


@pytest.mark.parametrize("scheme_name", all_scheme_names())
def test_canonical_start_ends_on_label_tree(scheme_name):
    passes = 0
    for seed in SEEDS:
        ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
        batch = ldoc.batch()
        run_program(ldoc, batch, random_steps(seed))
        before, relabeled = apply_counted(ldoc, batch)
        if not ldoc.last_batch_result.relabel_passes:
            continue
        passes += 1
        assert ldoc.labels == ldoc.scheme.label_tree(ldoc.document), seed
        assert relabeled == oracle_relabels(ldoc, before), seed
        assert_index_matches(ldoc)
        ldoc.verify_order()
    if scheme_name in DEFERRING_SCHEMES:
        assert passes >= len(SEEDS) // 3


def gapped(scheme_name, seed):
    """A document after per-operation inserts, then deletes."""
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    rng = random.Random(seed)
    run_program(ldoc, ldoc.updates, [
        (rng.choice(("insert-before", "insert-after", "prepend-child")),
         rng.randrange(10**6), 0) for _ in range(3)])
    run_program(ldoc, ldoc.updates, [
        ("delete", rng.randrange(10**6), 0) for _ in range(2)], start=3)
    return ldoc


@pytest.mark.parametrize("scheme_name", GAPPED_SCHEMES)
def test_gapped_start_relabels_only_the_changed_subtrees(scheme_name):
    passes = kept = 0
    for seed in SEEDS:
        ldoc = gapped(scheme_name, seed)
        if ldoc.labels != ldoc.scheme.label_tree(ldoc.document):
            kept += 1
        recorder = ParentRecorder(ldoc.batch())
        run_program(ldoc, recorder, random_steps(seed), start=10)
        before, relabeled = apply_counted(ldoc, recorder.batch)
        if not ldoc.last_batch_result.relabel_passes:
            continue
        passes += 1
        assert ldoc.labels == expected_labels(ldoc, before,
                                              recorder.parents), seed
        assert relabeled <= oracle_relabels(ldoc, before), seed
        assert_index_matches(ldoc)
        ldoc.verify_order()
    assert kept >= len(SEEDS) // 2  # the starts really are gapped
    assert passes >= len(SEEDS) // 3


def test_a_gap_outside_the_changed_parent_is_kept():
    ldoc = labeled(parse("<r><a/><b/><c/><d><x/><y/></d></r>"), "dewey")
    a, b, c, d = ldoc.document.root.element_children()
    x = d.element_children()[0]
    ldoc.updates.delete(b)  # c and d keep 1.3 and 1.4
    with ldoc.batch() as batch:
        w = batch.insert_before(x, "w").node
    result = ldoc.last_batch_result
    assert result.relabel_passes == 1
    assert [ldoc.format_label(node) for node in (a, c, d)] == [
        "1.1", "1.3", "1.4"]
    assert [ldoc.format_label(node) for node in d.element_children()] == [
        "1.4.1", "1.4.2", "1.4.3"]
    assert ldoc.labels[w.node_id] == (1, 4, 1)
    # x and y; label_tree would also have moved c, d and d's subtree.
    assert result.relabeled_nodes == 2
    ldoc.verify_order()


SHAPES_XML = "<r><a k='1'><b/><c><e/></c></a><d><f/><g/></d></r>"


def _pending_under_pending(batch, root, a, d):
    batch.insert_subtree(a, 1, parse_fragment("<s><t><u/></t><v/></s>"))


def _move_a_pending_node(batch, root, a, d):
    pending = batch.insert_before(a.element_children()[0], "p").node
    batch.move(pending, d, 0)


def _deleted_changed_parent(batch, root, a, d):
    c = a.element_children()[1]
    batch.insert_before(c.element_children()[0], "doomed")
    batch.insert_before(d.element_children()[0], "kept")
    batch.delete(c)


def _insert_under_the_root(batch, root, a, d):
    batch.prepend_child(root, "front")


def _attribute_inserts(batch, root, a, d):
    batch.insert_attribute(a, "l", "en")
    batch.insert_attribute(d, "m", "1")


SHAPES = {
    "pending-under-pending": _pending_under_pending,
    "move-of-a-pending-node": _move_a_pending_node,
    "changed-parent-deleted-later": _deleted_changed_parent,
    "insert-under-the-root": _insert_under_the_root,
    "attribute-inserts": _attribute_inserts,
}


@pytest.mark.parametrize("scheme_name", ["dewey", "cohen", "prepost"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_end_on_label_tree(scheme_name, shape):
    ldoc = labeled(parse(SHAPES_XML), scheme_name)
    root = ldoc.document.root
    with ldoc.batch() as batch:
        SHAPES[shape](batch, root, *root.element_children())
        assert batch.pending
    assert ldoc.last_batch_result.relabel_passes == 1
    assert ldoc.labels == ldoc.scheme.label_tree(ldoc.document)
    assert_index_matches(ldoc)
    ldoc.verify_order()


def _deferring_batch(batch, ldoc):
    root = ldoc.document.root
    a, d = root.element_children()
    batch.insert_before(a.element_children()[0], "n")
    batch.insert_subtree(d, 0, parse_fragment("<s><t/></s>"))
    batch.move(a.element_children()[1], d, 1)
    batch.delete(d.element_children()[-1])


def _exception_in_the_block(ldoc):
    with pytest.raises(RuntimeError):
        with ldoc.batch() as batch:
            _deferring_batch(batch, ldoc)
            raise RuntimeError("mid-batch failure")


def _relabel_fault(ldoc):
    get_injector().arm("batch.relabel")
    with pytest.raises(InjectedFault):
        with ldoc.batch() as batch:
            _deferring_batch(batch, ldoc)


def _transaction_rolled_back_after_apply(ldoc):
    with pytest.raises(RuntimeError):
        with ldoc.transaction():
            with ldoc.batch() as batch:
                _deferring_batch(batch, ldoc)
            assert ldoc.last_batch_result.relabel_passes == 1
            raise RuntimeError("after the apply")


ROLLBACKS = {
    "exception-in-the-block": _exception_in_the_block,
    "batch-relabel-fault": _relabel_fault,
    "transaction-after-apply": _transaction_rolled_back_after_apply,
}


@pytest.mark.parametrize("scheme_name", ["dewey", "cohen", "prepost"])
@pytest.mark.parametrize("case", sorted(ROLLBACKS))
def test_rollback_restores_labels_and_index(scheme_name, case):
    ldoc = labeled(parse(SHAPES_XML), scheme_name)
    ldoc.updates.delete(ldoc.document.root.element_children()[0]
                        .element_children()[0])  # a gap, under Dewey
    xml = serialize(ldoc.document)
    labels = copy.deepcopy(ldoc.labels)
    index = copy.deepcopy(ldoc._label_index)
    ROLLBACKS[case](ldoc)
    assert serialize(ldoc.document) == xml
    assert ldoc.labels == labels
    assert ldoc._label_index == index
    assert ldoc._active_batch is None
    ldoc.verify_order()


GRAFT = "<graft><first/><second><leaf/></second></graft>"

SCALES = (1, 4, 16)


def grafted(scale):
    """Dewey XMark with the same small element appended to its root."""
    ldoc = LabeledDocument(xmark_document(scale=scale, seed=12),
                           make_scheme("dewey"))
    root = ldoc.document.root
    graft = ldoc.updates.insert_subtree(root, len(root.children),
                                        parse_fragment(GRAFT)).node
    return ldoc, graft


def test_the_pass_labels_as_many_nodes_at_every_scale(monkeypatch):
    sizes = {}
    for scale in SCALES:
        ldoc, graft = grafted(scale)
        scheme = ldoc.scheme
        relabel_below, label_tree = scheme.relabel_below, scheme.label_tree
        returned, whole = [], []

        def counted_pass(*args):
            fresh = relabel_below(*args)
            returned.append(len(fresh))
            return fresh

        def counted_label_tree(document):
            whole.append(document)
            return label_tree(document)

        monkeypatch.setattr(scheme, "relabel_below", counted_pass)
        monkeypatch.setattr(scheme, "label_tree", counted_label_tree)
        with ldoc.batch() as batch:
            batch.insert_before(graft.element_children()[0], "n")
        assert ldoc.last_batch_result.relabel_passes == 1
        assert whole == []
        sizes[scale] = returned
        assert ldoc.labels == label_tree(ldoc.document)
    # The new node, first, second and leaf: the graft's subtree alone.
    assert sizes == {scale: [4] for scale in SCALES}


def test_explain_predicts_a_flat_extent():
    extents = []
    for scale in SCALES:
        ldoc, graft = grafted(scale)
        with ldoc.batch() as batch:
            batch.insert_before(graft.element_children()[0], "n")
            plan = explain_batch(batch)
        plan.finish(ldoc.last_batch_result)
        assert plan.predicted_relabel_passes == 1
        assert plan.predicted_relabel_extent >= plan.actual_relabeled_nodes
        assert plan.actual_relabeled_nodes == 3
        extents.append(plan.predicted_relabel_extent)
    assert extents == [3] * len(SCALES)


def test_explain_predicts_no_pass_once_the_pending_node_is_deleted():
    ldoc = labeled(parse("<r><a/><b/></r>"), "dewey")
    a = ldoc.document.root.element_children()[0]
    with ldoc.batch() as batch:
        batch.delete(batch.insert_before(a, "n").node)
        plan = explain_batch(batch)
    plan.finish(ldoc.last_batch_result)
    assert plan.deferred_labels == 1
    assert plan.predicted_relabel_passes == plan.actual_relabel_passes == 0
    assert plan.predicted_relabel_extent == 0
