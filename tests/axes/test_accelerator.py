"""Axis accelerator: window-index answers versus the scan path.

The contract under test: the document's index answers every axis
identically to ``AxisEvaluator``'s label-table scan — across all 17
schemes, before and after every mutation kind — and an index that
missed a structural change refuses with :class:`StaleIndexError`
instead of serving stale windows.
"""

import pytest
from hypothesis import given, settings

from conftest import all_scheme_names, fresh_random_document, labeled
from reference_ulang import axis_candidates
from reference_xpath import reference_xpath
from repro.axes import accelerator as accelerator_module
from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath import xpath
from repro.axes.xpath_ast import AXES
from repro.errors import ReproError, StaleIndexError
from repro.observability.explain import explain_query
from repro.observability.metrics import get_registry
from repro.schemes.registry import make_scheme
from repro.store.repository import open_repository
from repro.updates.document import LabeledDocument
from repro.xmlmodel.parser import parse
from repro.xmlmodel.xmark import xmark_document
from update_programs import STRUCTURAL_KINDS, programs, run_program


def ids(nodes):
    return [node.node_id for node in nodes]


def assert_equivalent(ldoc, accelerator, limit=None):
    scan = AxisEvaluator(ldoc, allow_fallback=True)
    fast = AxisEvaluator(ldoc, allow_fallback=True, accelerator=accelerator)
    contexts = list(ldoc.document.labeled_nodes())
    if limit is not None:
        contexts = contexts[:limit]
    for node in contexts:
        for axis in AXES:
            expected = ids(scan.evaluate(axis, node))
            got = ids(fast.evaluate(axis, node))
            assert got == expected, (axis, node.name, expected, got)


def assert_matches_tree(ldoc, accelerator):
    """Every axis from every element and attribute node, against the
    tree-pointer walk: it needs no label, so it answers mid-batch."""
    root = ldoc.document.root
    order = {node.node_id: position
             for position, node in enumerate(root.preorder())}
    for node in ldoc.document.labeled_nodes():
        for axis in AXES:
            expected = [other for other in axis_candidates(axis, node, order)
                        if other.kind.is_labeled]
            assert ids(accelerator.evaluate(axis, node)) == ids(expected), (
                axis, node.name)


def defer_three(ldoc):
    """Open a batch holding a pending element, its child and its
    attribute (a leftmost insert defers under Dewey and PrePost)."""
    first = next(iter(ldoc.document.root.labeled_children()))
    batch = ldoc.batch()
    head = batch.insert_before(first, "head").node
    batch.append_child(head, "inner")
    batch.insert_attribute(head, "k", "v")
    assert batch.pending == 3
    return batch


def small_ldoc(scheme_name="dewey"):
    return labeled(
        parse("<a><b i='1'><c/><c/></b><b i='2'><c/></b><d/></a>"),
        scheme_name,
    )


def built(ldoc):
    """The document's index, built now (it builds at its first query)."""
    accelerator = ldoc.accelerator()
    accelerator.nodes()
    return accelerator


@pytest.mark.parametrize("scheme_name", all_scheme_names())
class TestEquivalenceAcrossSchemes:
    def test_static_document(self, scheme_name):
        ldoc = labeled(fresh_random_document(60, seed=7), scheme_name)
        assert_equivalent(ldoc, built(ldoc), limit=20)

    def test_after_mixed_updates(self, scheme_name):
        # Insert, delete and move through the live update surface; the
        # attached accelerator must keep agreeing with the scan path.
        ldoc = labeled(fresh_random_document(40, seed=11), scheme_name)
        accelerator = built(ldoc)
        document = ldoc.document
        root = document.root
        ldoc.updates.append_child(root, "fresh")
        first = next(iter(root.labeled_children()))
        ldoc.updates.insert_after(first, "neighbour")
        victim = list(document.labeled_nodes())[-1]
        if victim.parent is not None:
            ldoc.updates.delete(victim)
        movable = next(
            node for node in document.labeled_nodes()
            if node.parent is not None and node.is_element
        )
        ldoc.updates.move(movable, root, len(root.attributes()))
        assert_equivalent(ldoc, accelerator, limit=20)

    def test_after_batch_apply(self, scheme_name):
        ldoc = labeled(fresh_random_document(30, seed=3), scheme_name)
        accelerator = built(ldoc)
        root = ldoc.document.root
        first = next(iter(root.labeled_children()))
        with ldoc.batch() as batch:
            for index in range(4):
                batch.append_child(root, f"tail{index}")
            batch.insert_before(first, "head")
        assert_equivalent(ldoc, accelerator, limit=20)


class TestIncrementalMaintenance:
    def test_insert_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        builds = accelerator._metric_builds.value
        ldoc.updates.append_child(ldoc.document.root, "new")
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert accelerator._metric_builds.value == builds

    def test_delete_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        builds = accelerator._metric_builds.value
        doomed = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "b"
        )
        ldoc.updates.delete(doomed)
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert accelerator._metric_builds.value == builds

    def test_move_stays_current(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        node = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        target = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "b"
        )
        ldoc.updates.move(node, target, len(target.children))
        assert_equivalent(ldoc, accelerator)

    def test_batch_apply_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        builds = accelerator._metric_builds.value
        splices = accelerator._metric_splices.value
        root = ldoc.document.root
        first = next(iter(root.labeled_children()))
        with ldoc.batch() as batch:
            batch.insert_before(first, "head")  # forces a deferral on dewey
            assert batch.pending
        assert ldoc.last_batch_result.relabel_passes == 1
        assert not accelerator.stale
        assert accelerator._metric_splices.value == splices + 1
        assert_equivalent(ldoc, accelerator)
        assert accelerator._metric_builds.value == builds

    @pytest.mark.parametrize("scheme_name", ["dewey", "prepost"])
    def test_mid_batch_query_answers(self, scheme_name):
        # Each pending node was spliced as it was attached: the index
        # answers every axis as the tree does, and the apply splices
        # nothing more.
        ldoc = small_ldoc(scheme_name)
        accelerator = built(ldoc)
        batch = defer_three(ldoc)
        assert_matches_tree(ldoc, accelerator)
        splices = accelerator._metric_splices.value
        batch.apply()
        assert accelerator._metric_splices.value == splices
        assert_equivalent(ldoc, accelerator)

    @pytest.mark.parametrize("scheme_name", ["dewey", "prepost"])
    def test_first_build_mid_batch_holds_pending_nodes(self, scheme_name):
        ldoc = small_ldoc(scheme_name)
        batch = defer_three(ldoc)
        accelerator = ldoc.accelerator()  # built by the first step below
        assert_matches_tree(ldoc, accelerator)
        batch.apply()
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)

    def test_rollback_splices_without_rebuild(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        builds = get_registry().counter("axes.accelerator.builds")
        built_before = builds.value
        root = ldoc.document.root
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.append_child(root, "doomed")
                raise RuntimeError("abort")
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert builds.value == built_before

    def test_detach_stops_maintenance(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        ldoc.unsubscribe_deltas(accelerator)
        ldoc.updates.append_child(ldoc.document.root, "late")
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", ldoc.document.root)

    def test_unindexed_node_refused(self):
        ldoc = small_ldoc()
        other = small_ldoc()
        accelerator = built(ldoc)
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", other.document.root)


class TestStalenessPerMutationKind:
    """An index cut off from the delta stream notices every mutation kind."""

    def detached(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        ldoc.unsubscribe_deltas(accelerator)
        return ldoc, accelerator

    def assert_stale(self, ldoc, accelerator):
        with pytest.raises(StaleIndexError):
            accelerator.evaluate("descendant", ldoc.document.root)
        accelerator.refresh()
        assert_equivalent(ldoc, accelerator)

    def test_insert(self):
        ldoc, accelerator = self.detached()
        ldoc.updates.append_child(ldoc.document.root, "new")
        self.assert_stale(ldoc, accelerator)

    def test_delete(self):
        ldoc, accelerator = self.detached()
        doomed = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.delete(doomed)
        self.assert_stale(ldoc, accelerator)

    def test_move(self):
        ldoc, accelerator = self.detached()
        node = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.move(node, ldoc.document.root, 0)
        self.assert_stale(ldoc, accelerator)

    def test_batch(self):
        ldoc, accelerator = self.detached()
        with ldoc.batch() as batch:
            batch.append_child(ldoc.document.root, "new")
        self.assert_stale(ldoc, accelerator)

    def test_rollback(self):
        ldoc, accelerator = self.detached()
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.append_child(ldoc.document.root, "doomed")
                raise RuntimeError("abort")
        self.assert_stale(ldoc, accelerator)

    def test_content_updates_do_not_stale(self):
        ldoc, accelerator = self.detached()
        element = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.set_text(element, "payload")
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)

    def test_attribute_value(self):
        # The index maps attribute values to their nodes: a value
        # change it missed stales it, and so does the undo of one.
        ldoc, accelerator = self.detached()
        attribute = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "i"
        )
        owner = attribute.parent
        before = attribute.value
        accelerator.evaluate("descendant", ldoc.document.root,
                             attribute=("i", before))
        ldoc.updates.set_attribute_value(attribute, "9")
        self.assert_stale(ldoc, accelerator)
        assert accelerator.evaluate("descendant", ldoc.document.root,
                                    attribute=("i", "9")) == [owner]
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.set_attribute_value(attribute, "10")
                accelerator.refresh()
                raise RuntimeError("abort")
        self.assert_stale(ldoc, accelerator)
        assert accelerator.evaluate("descendant", ldoc.document.root,
                                    attribute=("i", "9")) == [owner]

    def test_rename(self):
        # The index keeps each name's nodes: a rename it missed stales it.
        ldoc, accelerator = self.detached()
        element = next(
            node for node in ldoc.document.labeled_nodes() if node.name == "d"
        )
        ldoc.updates.rename(element, "renamed")
        self.assert_stale(ldoc, accelerator)
        assert accelerator.named("renamed") == [element]


@pytest.mark.parametrize("scheme_name", ["qed", "dewey", "prepost"])
def test_a_missed_change_keeps_the_index_behind(scheme_name):
    # A node attached straight on the tree publishes nothing, so the next
    # published delta is two versions ahead of the index's stamp: the
    # index splices nothing and refuses queries and EXPLAIN plans alike
    # until refresh(), instead of answering without the missed node.
    ldoc = LabeledDocument(parse("<a><b/><c/></a>"), make_scheme(scheme_name))
    assert [node.name for node in xpath(ldoc, "//*")] == ["a", "b", "c"]
    root = ldoc.document.root
    missed = root.append_child(ldoc.document.new_element("x"))
    ldoc.updates.append_child(root, "y")
    refusals = get_registry().counter("axes.accelerator.stale_errors")
    for read in (lambda: xpath(ldoc, "//*"),
                 lambda: explain_query(ldoc, "//*"),
                 lambda: explain_query(ldoc, "//*", analyze=True)):
        before = refusals.value
        with pytest.raises(StaleIndexError):
            read()
        assert refusals.value == before + 1
    ldoc.updates.delete(missed)
    assert missed.parent is None
    ldoc.accelerator().refresh()
    assert ids(xpath(ldoc, "//*")) == ids(
        node for node in root.preorder() if node.is_element)


class TestDocumentOrder:
    """Result ordering by position, only from current windows."""

    def test_sorts_by_position(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "last")  # a splice
        nodes = list(ldoc.document.labeled_nodes())
        assert ids(accelerator.document_order(nodes[::-1])) == ids(nodes)

    def assert_refused(self, accelerator, nodes):
        registry = get_registry()
        builds = registry.counter("axes.accelerator.builds").value
        refusals = registry.counter("axes.accelerator.stale_errors").value
        assert accelerator.document_order(nodes) is None
        assert registry.counter("axes.accelerator.builds").value == builds
        assert (registry.counter("axes.accelerator.stale_errors").value
                == refusals)

    def test_refuses_when_marked_for_rebuild(self):
        # A new index is marked for a build until its first query, and
        # ordering does not run that build.
        ldoc = small_ldoc()
        accelerator = ldoc.accelerator()
        assert accelerator.stale
        self.assert_refused(accelerator, list(ldoc.document.labeled_nodes()))

    def test_refuses_when_stamp_is_behind(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        ldoc.unsubscribe_deltas(accelerator)
        nodes = list(ldoc.document.labeled_nodes())
        ldoc.updates.move(nodes[-1], ldoc.document.root, 0)
        self.assert_refused(accelerator, nodes)

    def test_orders_while_a_batch_is_pending(self):
        # Pending nodes are on the index, so it orders them too.
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        batch = defer_three(ldoc)
        nodes = list(ldoc.document.labeled_nodes())
        assert ids(accelerator.document_order(nodes[::-1])) == ids(nodes)
        batch.apply()

    def test_refuses_a_node_off_the_index(self):
        ldoc = small_ldoc()
        accelerator = built(ldoc)
        # Same shape, same node ids: only identity tells them apart.
        other = list(small_ldoc().document.labeled_nodes())
        self.assert_refused(accelerator, other)


class TestEvaluatorRouting:
    def test_accelerated_axes_counted(self):
        # Every axis, self and attribute included, routes to the index.
        ldoc = small_ldoc()
        fast = AxisEvaluator(ldoc, accelerator=built(ldoc))
        fast.evaluate("descendant", ldoc.document.root)
        fast.evaluate("self", ldoc.document.root)
        assert fast.accelerated_hits == 2

    def test_repository_xpath_uses_accelerator(self):
        repository = open_repository("memory://")
        stored = repository.add(
            "doc", "<a><b><c/><c/></b><b><c/></b></a>", scheme="dewey"
        )
        assert len(stored.xpath("//c")) == 3
        assert stored.ldoc._accelerator is stored.ldoc.accelerator()
        # Updates flow through the attached accelerator transparently.
        stored.ldoc.updates.append_child(stored.ldoc.document.root, "b")
        assert len(stored.xpath("/a/b")) == 3


class TestRollbackSplices:
    """A rollback publishes inverse deltas: the index splices, not rebuilds."""

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(program=programs(STRUCTURAL_KINDS, max_size=6))
    def test_rolled_back_structural_transaction(self, scheme_name, program):
        ldoc = labeled(fresh_random_document(40, seed=13), scheme_name)
        accelerator = built(ldoc)
        builds = get_registry().counter("axes.accelerator.builds")
        built_before = builds.value
        held = list(ldoc.document.labeled_nodes())
        labels = [ldoc.label_of(node) for node in held]
        with pytest.raises((RuntimeError, ReproError)):
            with ldoc.transaction():
                run_program(ldoc, ldoc.updates, program)
                raise RuntimeError("roll back")
        # Relabellings publish nothing, so every change and its undo
        # were splices, relabel storms included.
        assert not accelerator.stale
        assert_equivalent(ldoc, accelerator)
        assert builds.value == built_before
        # The held references are the live nodes, labelled as before.
        assert list(ldoc.document.labeled_nodes()) == held
        assert [ldoc.label_of(node) for node in held] == labels


class TestOneIndexPerDocument:
    def test_the_getter_returns_the_same_index(self):
        ldoc = small_ldoc()
        assert ldoc.accelerator() is ldoc.accelerator()
        assert ldoc._delta_listeners == [ldoc.accelerator()]

    def test_built_at_the_first_query(self):
        ldoc = small_ldoc()
        accelerator = ldoc.accelerator()
        assert accelerator.stale and accelerator.size() == 0
        accelerator.evaluate("child", ldoc.document.root)
        assert not accelerator.stale
        assert accelerator.size() == len(ldoc.labels)

    @pytest.mark.parametrize("scheme_name", ["prepost", "lsdx", "cdbs"])
    def test_relabelling_splices_without_rebuild(self, scheme_name):
        # PrePost relabels the whole document on every insert, and
        # LSDX/CDBS reorganise sibling ranges: positions stay valid.
        ldoc = small_ldoc(scheme_name)
        accelerator = built(ldoc)
        builds = accelerator._metric_builds.value
        relabeled = ldoc.log.relabeled_nodes
        first = next(iter(ldoc.document.root.labeled_children()))
        for index in range(12):
            ldoc.updates.insert_before(first, f"head{index}")
        if scheme_name == "prepost":
            assert ldoc.log.relabeled_nodes > relabeled
        assert not accelerator.stale
        assert accelerator._metric_builds.value == builds
        assert_equivalent(ldoc, accelerator)


class TestValueLookups:
    """``[@a='v']`` steps read the value maps: O(result), not O(n)."""

    @pytest.fixture
    def filtered(self, monkeypatch):
        """Candidate lists the index filters by attribute value."""
        seen = []
        filter_nodes = accelerator_module.with_attribute

        def counted(nodes, name, value):
            seen.append(len(nodes))
            return filter_nodes(nodes, name, value)

        monkeypatch.setattr(accelerator_module, "with_attribute", counted)
        return seen

    @pytest.mark.parametrize("scale", [1, 4, 16])
    def test_an_id_step_reads_one_row_at_every_scale(self, scale, filtered):
        ldoc = LabeledDocument(xmark_document(scale=scale, seed=12),
                               make_scheme("qed"))
        auctions = ldoc.accelerator().named("open_auction")
        target = auctions[len(auctions) // 2].attribute("id").value
        path = f"//open_auction[@id='{target}']/bidder/increase"
        plan = explain_query(ldoc, path, analyze=True)
        first = plan.steps[0]
        assert (first.strategy, first.axis_rows, first.actual_rows) == (
            "accelerator-window", 1, 1)
        assert filtered == []  # no candidate list was filtered
        assert plan.result_count == len(reference_xpath(ldoc, path))

    def test_a_common_value_filters_the_fewer_rows(self, filtered):
        # Twenty elements carry c='x' but only three are called b: the
        # step filters the three b's instead of reading twenty owners.
        ldoc = labeled(parse(
            "<a>" + "<d c='x'/>" * 18 + "<b c='x'/><b c='y'/><b c='x'/></a>"),
            "qed")
        bs = ldoc.document.root.element_children()[18:]
        assert xpath(ldoc, "//b[@c='x']") == [bs[0], bs[2]]
        assert filtered == [3]  # the three b's of the window
        assert xpath(ldoc, "/a/*[@c='y']") == [bs[1]]
        assert filtered == [3]  # one owner beats 21 children
        # Without a name test a window's rows are all its nodes, and on
        # child they are the context's children.
        root = ldoc.document.root
        index = ldoc.accelerator()
        first = root.element_children()[0]
        assert index.evaluate("descendant", root, None, ("c", "x")) == (
            root.element_children()[:18] + [bs[0], bs[2]])
        assert filtered == [3]  # 20 owners beat 43 window rows
        assert index.evaluate("descendant-or-self", first, None,
                              ("c", "x")) == [first]
        assert index.evaluate("child", first, None, ("c", "x")) == []
        assert filtered == [3, 2, 1]  # first and its attribute; its one child

    def test_duplicate_attribute_names_list_their_owner_once(self):
        # The parser and the update layer refuse a repeated attribute
        # name; a tree built in code can still carry one.
        document = parse("<a><b x='1' y='1'/><b x='1'/></a>")
        first, second = document.root.element_children()
        first.attribute("y").name = "x"
        ldoc = labeled(document, "qed")
        assert xpath(ldoc, "//*[@x='1']") == [first, second]
        assert xpath(ldoc, "/a/b[@x='1'][2]") == [second]
