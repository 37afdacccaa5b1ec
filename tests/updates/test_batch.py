"""UpdateBatch: deferred relabelling, equivalence with per-op updates."""

import random

import pytest

from conftest import all_scheme_names, labeled
from repro.data.sample import sample_document
from repro.encoding.table import EncodingTable
from repro.errors import BatchError, UpdateError
from repro.updates.batch import BatchResult, UpdateBatch, apply_batch
from repro.updates.operations import OpKind, Operation, apply_program
from repro.xmlmodel.parser import parse, parse_fragment
from repro.xmlmodel.serializer import serialize

BASE_XML = "<root><a><b/><c/></a><d><e/></d></root>"

#: The schemes the equivalence property must cover per the issue: prefix
#: (dewey, ordpath), quaternary (qed, cdqs), vector, and a containment
#: scheme (prepost).
EQUIVALENCE_SCHEMES = ["dewey", "ordpath", "qed", "cdqs", "vector", "prepost"]


def random_program(seed, size=40):
    rng = random.Random(seed)
    kinds = list(OpKind)
    return [
        Operation(kind=rng.choice(kinds), target=rng.randrange(0, 64),
                  name=f"n{index}", text=f"t{index}")
        for index in range(size)
    ]


def fresh_pair(scheme_name):
    """Two identically labelled documents for per-op vs batch runs."""
    return (
        labeled(parse(BASE_XML), scheme_name),
        labeled(parse(BASE_XML), scheme_name),
    )


class TestBatchBasics:
    def test_append_children_in_batch(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        with ldoc.batch() as batch:
            for index in range(5):
                batch.append_child(ldoc.document.root, f"kid{index}")
        ldoc.verify_order()
        assert ldoc.log.insertions == 5
        result = ldoc.last_batch_result
        assert isinstance(result, BatchResult)
        assert result.operations == 5
        assert result.labels_assigned == 5

    def test_persistent_scheme_takes_fast_path(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        with ldoc.batch() as batch:
            for index in range(10):
                batch.append_child(ldoc.document.root, f"kid{index}")
        result = ldoc.last_batch_result
        assert result.deferred_labels == 0
        assert result.relabel_passes == 0
        assert ldoc.log.relabel_events == 0

    def test_relabelling_scheme_consolidates_to_one_pass(self):
        ldoc = labeled(parse(BASE_XML), "prepost")
        first = ldoc.document.root.element_children()[0]
        with ldoc.batch() as batch:
            for index in range(20):
                batch.insert_after(first, f"kid{index}")
        result = ldoc.last_batch_result
        assert result.deferred_labels == 20
        assert result.relabel_passes == 1
        assert result.relabels_avoided == 19
        assert ldoc.log.relabel_events == 1
        ldoc.verify_order()

    def test_batch_results_carry_final_labels(self):
        ldoc = labeled(parse(BASE_XML), "dewey")
        first = ldoc.document.root.element_children()[0]
        with ldoc.batch() as batch:
            results = [batch.insert_before(first, f"kid{i}") for i in range(4)]
        for result in results:
            assert not result.deferred
            assert result.label == ldoc.labels[result.node.node_id]

    def test_insert_subtree_in_batch(self):
        ldoc = labeled(parse(BASE_XML), "cdqs")
        fragment = parse_fragment("<sub><x/><y>text</y></sub>")
        with ldoc.batch() as batch:
            result = batch.insert_subtree(ldoc.document.root, 0, fragment)
        assert result.kind == "insert-subtree"
        assert result.labels_assigned == 3
        ldoc.verify_order()

    def test_move_in_batch(self):
        ldoc = labeled(parse(BASE_XML), "vector")
        a, d = ldoc.document.root.element_children()
        b = a.element_children()[0]
        with ldoc.batch() as batch:
            result = batch.move(b, d, len(d.children))
        assert result.kind == "move"
        assert b.parent is d
        ldoc.verify_order()

    def test_delete_of_pending_node(self):
        ldoc = labeled(parse(BASE_XML), "prepost")
        first = ldoc.document.root.element_children()[0]
        with ldoc.batch() as batch:
            inserted = batch.insert_after(first, "doomed")
            assert inserted.deferred
            batch.delete(inserted.node)
            assert batch.pending == 0
        ldoc.verify_order()
        assert ldoc.log.insertions == 1
        assert ldoc.log.deletions == 1


class TestBatchErrors:
    def test_only_one_open_batch(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        batch = ldoc.batch()
        with pytest.raises(BatchError):
            ldoc.batch()
        batch.apply()
        ldoc.batch().apply()  # reopens fine once closed

    def test_verify_order_refuses_pending_batch(self):
        ldoc = labeled(parse(BASE_XML), "prepost")
        first = ldoc.document.root.element_children()[0]
        batch = ldoc.batch()
        batch.insert_after(first, "new")
        with pytest.raises(BatchError):
            ldoc.verify_order()
        batch.apply()
        ldoc.verify_order()

    def test_operations_after_apply_rejected(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        batch = ldoc.batch()
        batch.apply()
        with pytest.raises(BatchError):
            batch.append_child(ldoc.document.root, "late")
        with pytest.raises(BatchError):
            batch.apply()

    def test_context_manager_abandons_on_exception(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        with pytest.raises(RuntimeError):
            with ldoc.batch() as batch:
                batch.append_child(ldoc.document.root, "kid")
                raise RuntimeError("boom")
        assert ldoc._active_batch is None
        assert not batch.applied or batch.pending == 0

    def test_exception_rolls_back_labels_and_index(self):
        """Regression: an exception mid-batch used to abandon the batch
        with the tree mutated and pending nodes permanently unlabelled;
        it must instead restore the full pre-batch state."""
        ldoc = labeled(parse(BASE_XML), "dewey")
        before_xml = serialize(ldoc.document)
        before_labels = dict(ldoc.labels)
        before_index = dict(ldoc._label_index)
        with pytest.raises(RuntimeError):
            with ldoc.batch() as batch:
                root = ldoc.document.root
                batch.append_child(root, "kid")
                batch.insert_before(root.element_children()[0], "front")
                raise RuntimeError("mid-batch failure")
        assert serialize(ldoc.document) == before_xml
        assert ldoc.labels == before_labels
        assert ldoc._label_index == before_index
        ldoc.verify_order()

    def test_exception_rollback_restores_log_counters(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        ldoc.updates.append_child(ldoc.document.root, "pre")  # insertions == 1
        with pytest.raises(RuntimeError):
            with ldoc.batch() as batch:
                batch.append_child(ldoc.document.root, "kid")
                raise RuntimeError("boom")
        assert ldoc.log.insertions == 1
        assert ldoc.log.rollbacks == 1

    def test_empty_batch_rollback_is_free(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        with pytest.raises(RuntimeError):
            with ldoc.batch() as batch:
                raise RuntimeError("boom")
        assert batch._undo is None  # no mutation, nothing captured
        assert ldoc._active_batch is None

    def test_move_validations(self):
        ldoc = labeled(parse(BASE_XML), "qed")
        root = ldoc.document.root
        a = root.element_children()[0]
        with ldoc.batch() as batch:
            with pytest.raises(UpdateError):
                batch.move(root, a, 0)
            with pytest.raises(UpdateError):
                batch.move(a, a.element_children()[0], 0)


class TestBatchEquivalence:
    """apply_batch(ops) == per-op application, structurally and in order."""

    @pytest.mark.parametrize("scheme_name", EQUIVALENCE_SCHEMES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_program_equivalence(self, scheme_name, seed):
        program = random_program(seed)
        per_op, batched = fresh_pair(scheme_name)
        apply_program(per_op, program)
        result = apply_batch(batched, program)
        assert isinstance(result, BatchResult)
        # Identical structure...
        assert serialize(batched.document) == serialize(per_op.document)
        # ...identical document order under each labelling...
        per_op.verify_order()
        batched.verify_order()
        # ...and an identical reconstruction from the encoding table.
        rebuilt_per_op = EncodingTable.from_labeled_document(
            per_op).reconstruct()
        rebuilt_batched = EncodingTable.from_labeled_document(
            batched).reconstruct()
        assert serialize(rebuilt_batched) == serialize(rebuilt_per_op)

    @pytest.mark.parametrize("scheme_name", EQUIVALENCE_SCHEMES)
    def test_counter_parity(self, scheme_name):
        program = random_program(99, size=60)
        per_op, batched = fresh_pair(scheme_name)
        apply_program(per_op, program)
        apply_batch(batched, program)
        assert batched.log.insertions == per_op.log.insertions
        assert batched.log.deletions == per_op.log.deletions
        assert batched.log.content_updates == per_op.log.content_updates
        # Relabelling is consolidated, never worse than per-op.
        assert batched.log.relabel_events <= max(per_op.log.relabel_events, 1)


class TestBatchAllSchemes:
    """The issue's acceptance bar: every registry scheme survives a batch."""

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    def test_verify_order_after_batch(self, scheme_name):
        program = random_program(7, size=30)
        ldoc = labeled(sample_document(), scheme_name)
        apply_batch(ldoc, program)
        ldoc.verify_order()

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    def test_structure_and_counters_match_per_op(self, scheme_name):
        program = random_program(11, size=30)
        per_op = labeled(sample_document(), scheme_name)
        batched = labeled(sample_document(), scheme_name)
        apply_program(per_op, program)
        apply_batch(batched, program)
        assert serialize(batched.document) == serialize(per_op.document)
        assert batched.log.insertions == per_op.log.insertions
        assert batched.log.deletions == per_op.log.deletions
        assert batched.log.content_updates == per_op.log.content_updates


class TestPersistentSchemeLabelIdentity:
    """Fast-path batches reproduce per-op labels exactly."""

    @pytest.mark.parametrize("scheme_name",
                             ["ordpath", "qed", "cdqs", "vector"])
    def test_labels_bit_identical(self, scheme_name):
        program = [
            Operation(kind=OpKind.INSERT_AFTER, target=i, name=f"n{i}")
            for i in range(25)
        ]
        per_op, batched = fresh_pair(scheme_name)
        apply_program(per_op, program)
        result = apply_batch(batched, program)
        assert result.relabel_passes == 0
        per_labels = {
            node.node_id: per_op.labels[node.node_id]
            for node in per_op.document.labeled_nodes()
        }
        batch_labels = {
            node.node_id: batched.labels[node.node_id]
            for node in batched.document.labeled_nodes()
        }
        assert batch_labels == per_labels


PARITY_XML = '<r><a k="v"><x/><y/></a><b>old</b></r>'

#: Every operation of the two surfaces, as (surface, root, a, b) -> result.
PARITY_OPERATIONS = {
    "insert_before": lambda s, r, a, b: s.insert_before(b, "n"),
    "insert_after": lambda s, r, a, b: s.insert_after(a, "n"),
    "append_child": lambda s, r, a, b: s.append_child(a, "n"),
    "prepend_child": lambda s, r, a, b: s.prepend_child(a, "n"),
    "insert_attribute": lambda s, r, a, b: s.insert_attribute(b, "l", "en"),
    "insert_subtree": lambda s, r, a, b: s.insert_subtree(
        r, 1, parse_fragment("<f><g/><h/></f>")),
    "delete": lambda s, r, a, b: s.delete(a),
    "move": lambda s, r, a, b: s.move(a, b, 0),
    "set_text": lambda s, r, a, b: s.set_text(b, "new"),
    "set_attribute_value": lambda s, r, a, b: s.set_attribute_value(
        a.attributes()[0], "w"),
    "rename": lambda s, r, a, b: s.rename(b, "c"),
}


@pytest.mark.parametrize("scheme_name", ["qed", "dewey"])
@pytest.mark.parametrize("operation", sorted(PARITY_OPERATIONS))
def test_batch_result_matches_immediate_result(operation, scheme_name):
    """One operation reports the same cost through either surface."""
    run = PARITY_OPERATIONS[operation]
    immediate_doc = labeled(parse(PARITY_XML), scheme_name)
    root = immediate_doc.document.root
    immediate = run(immediate_doc.updates, root, *root.element_children())
    batched_doc = labeled(parse(PARITY_XML), scheme_name)
    root = batched_doc.document.root
    with batched_doc.batch() as batch:
        batched = run(batch, root, *root.element_children())

    def accounting(result):
        return result.kind, result.labels_assigned, result.nodes_detached

    assert accounting(batched) == accounting(immediate)
    if scheme_name == "qed":  # every batch operation takes the fast path
        assert batched.label == immediate.label
        assert batched.relabeled_nodes == immediate.relabeled_nodes
    batched_doc.verify_order()
