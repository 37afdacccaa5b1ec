"""Mini XPath evaluator tests over the sample document.

Every evaluation test runs on both result-ordering paths.  The scan path
is the reference evaluator (``tests/reference_xpath.py``): label-table
axis steps, merges ordered by the whole-document order map.  The index
path is ``xpath(ldoc, path)``: axis steps come from the document's
accelerator windows and merges are ordered by its positions.  Each test
class runs on the scan path under its own name, and its ``Accelerated``
subclass reruns every expectation on the index path.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import all_scheme_names, fresh_random_document, labeled
from reference_xpath import reference_xpath
from repro.axes.xpath import XPathEvaluator, parse_path, xpath
from repro.data.sample import sample_document
from repro.errors import StaleIndexError, XPathError
from repro.observability.explain import PlanRecorder
from repro.observability.stats import StatsCollector
from repro.store.repository import open_repository
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import Document
from update_programs import programs, run_program


def names(nodes):
    return [node.name for node in nodes]


def assert_same_nodes(got, expected, path=""):
    """Node for node (by identity) and in the same order."""
    assert len(got) == len(expected) and all(
        left is right for left, right in zip(got, expected)
    ), (path, names(got), names(expected))


def evaluate(ldoc, path, context=None, accelerated=True):
    """``xpath()`` on the index path, or the reference scan path."""
    if not accelerated:
        return reference_xpath(ldoc, path, context)
    result = xpath(ldoc, path, context)
    # Positions still current after the query: they, not a
    # whole-document map, ordered its merges.
    ordered = ldoc.accelerator().document_order(result)
    assert ordered is not None, path
    assert_same_nodes(ordered, result, path)
    return result


class ScanPath:
    """Queries a test's documents on the reference scan path.

    Subclasses set ``accelerated = True`` to query through the
    document's index instead.
    """

    accelerated = False

    def label(self, document, scheme_name):
        return labeled(document, scheme_name)

    def xpath(self, ldoc, path, context=None):
        return evaluate(ldoc, path, context, self.accelerated)


class TestParsing:
    def test_absolute_path(self):
        absolute, steps = parse_path("/book/title")
        assert absolute
        assert [step.name_test for step in steps] == ["book", "title"]

    def test_double_slash_merges_to_descendant(self):
        _, steps = parse_path("//name")
        assert len(steps) == 1
        assert steps[0].axis == "descendant"
        assert steps[0].name_test == "name"

    def test_double_slash_before_explicit_axis_keeps_expansion(self):
        _, steps = parse_path("//ancestor::x")
        assert steps[0].axis == "descendant-or-self"
        assert steps[1].axis == "ancestor"

    def test_axis_syntax(self):
        _, steps = parse_path("ancestor::*")
        assert steps[0].axis == "ancestor"
        assert steps[0].name_test == "*"

    def test_attribute_abbreviation(self):
        _, steps = parse_path("@genre")
        assert steps[0].axis == "attribute"

    def test_dot_and_dotdot(self):
        _, steps = parse_path("../.")
        assert steps[0].axis == "parent"
        assert steps[1].axis == "self"

    def test_predicates_parsed(self):
        _, steps = parse_path("item[2][@id='x']")
        assert steps[0].predicates == ["2", "@id='x'"]

    @pytest.mark.parametrize("bad", ["", "   ", "child::", "?bad", "a[unclosed"])
    def test_bad_paths_rejected(self, bad):
        with pytest.raises((XPathError, ValueError)):
            parse_path(bad)

    def test_unknown_axis_rejected(self):
        with pytest.raises(XPathError):
            parse_path("sideways::a")


class TestEvaluation(ScanPath):
    @pytest.fixture
    def ldoc(self):
        return self.label(sample_document(), "qed")

    def test_absolute_root_match(self, ldoc):
        assert names(self.xpath(ldoc, "/book")) == ["book"]

    def test_absolute_root_mismatch(self, ldoc):
        assert self.xpath(ldoc, "/magazine") == []

    def test_child_chain(self, ldoc):
        result = self.xpath(ldoc, "/book/publisher/editor/name")
        assert names(result) == ["name"]

    def test_descendant_search(self, ldoc):
        assert names(self.xpath(ldoc, "//name")) == ["name"]

    def test_absolute_descendant_includes_root(self, ldoc):
        # //book must select the root element itself (the abbreviation
        # expands from the virtual document node, not the root).
        assert names(self.xpath(ldoc, "//book")) == ["book"]
        assert names(self.xpath(ldoc, "//book//name")) == ["name"]

    def test_wildcard(self, ldoc):
        assert names(self.xpath(ldoc, "//editor/*")) == ["name", "address"]

    def test_attribute_selection(self, ldoc):
        result = self.xpath(ldoc, "//title/@genre")
        assert [node.value for node in result] == ["Fantasy"]

    def test_attribute_wildcard(self, ldoc):
        result = self.xpath(ldoc, "//edition/@*")
        assert [node.name for node in result] == ["year"]

    def test_positional_predicate(self, ldoc):
        assert names(self.xpath(ldoc, "/book/*[2]")) == ["author"]

    def test_attribute_equality_predicate(self, ldoc):
        result = self.xpath(ldoc, "//edition[@year='2004']")
        assert names(result) == ["edition"]
        assert self.xpath(ldoc, "//edition[@year='1999']") == []

    def test_child_text_predicate(self, ldoc):
        result = self.xpath(ldoc, "//editor[name='Destiny Image']")
        assert names(result) == ["editor"]

    def test_existence_predicate(self, ldoc):
        assert names(self.xpath(ldoc, "//*[@year]")) == ["edition"]

    def test_ancestor_axis(self, ldoc):
        assert names(self.xpath(ldoc, "//name/ancestor::*")) == [
            "book", "publisher", "editor",
        ]

    def test_parent_axis(self, ldoc):
        assert names(self.xpath(ldoc, "//name/..")) == ["editor"]

    def test_sibling_axes(self, ldoc):
        result = self.xpath(ldoc, "//address/preceding-sibling::*")
        assert names(result) == ["name"]
        result = self.xpath(ldoc, "//name/following-sibling::*")
        assert names(result) == ["address"]

    def test_following_axis(self, ldoc):
        assert names(self.xpath(ldoc, "//author/following::*")) == [
            "publisher", "editor", "name", "address", "edition",
        ]

    def test_results_deduplicated_in_document_order(self, ldoc):
        # Two steps that both reach the same nodes must not duplicate.
        result = self.xpath(ldoc, "//editor/*/ancestor::*")
        assert names(result) == ["book", "publisher", "editor"]

    def test_relative_path_with_context(self, ldoc):
        editor = self.xpath(ldoc, "//editor")[0]
        assert names(self.xpath(ldoc, "name", context=editor)) == ["name"]

    def test_union(self, ldoc):
        result = self.xpath(ldoc, "//name | //address")
        assert names(result) == ["name", "address"]

    def test_union_deduplicates_in_document_order(self, ldoc):
        result = self.xpath(ldoc, "//address | //editor/* | //name")
        assert names(result) == ["name", "address"]

    def test_union_with_predicates(self, ldoc):
        result = self.xpath(ldoc, "//edition[@year='2004'] | //title")
        assert names(result) == ["title", "edition"]

    def test_queries_after_updates(self, ldoc):
        root = ldoc.document.root
        ldoc.updates.append_child(root, "index")
        assert names(self.xpath(ldoc, "/book/index")) == ["index"]


class TestEvaluationAccelerated(TestEvaluation):
    accelerated = True


#: Scan-path runs keep the bare scheme ids; accelerator runs add a suffix.
SCHEME_RUNS = [
    pytest.param(name, accelerated,
                 id=f"{name}-accelerator" if accelerated else name)
    for accelerated in (False, True)
    for name in ("prepost", "vector", "dewey")
]


@pytest.mark.parametrize("scheme_name, accelerated", SCHEME_RUNS)
def test_same_answers_across_schemes(scheme_name, accelerated):
    """XPath results are scheme-independent (fallback where needed)."""
    ldoc = labeled(sample_document(), scheme_name)
    assert names(evaluate(ldoc, "//editor/*", accelerated=accelerated)) == [
        "name", "address",
    ]
    assert names(
        evaluate(ldoc, "//name/ancestor::*", accelerated=accelerated)
    ) == ["book", "publisher", "editor"]


class TestConfirmedBugs(ScanPath):
    """Regression tests for the four confirmed evaluation bugs."""

    def _parsed(self, text, scheme_name="dewey"):
        return self.label(parse(text), scheme_name)

    def test_unterminated_predicate_raises_xpath_error(self):
        # Used to escape as ValueError('substring not found') from
        # rest.index("]").
        ldoc = self._parsed("<a><b/></a>")
        with pytest.raises(XPathError, match="unterminated predicate"):
            self.xpath(ldoc, "/a/b[")

    def test_positional_predicate_is_per_context_node(self):
        # /a/b/c[1] selects the first c of *each* b (XPath 1.0), not the
        # first of the merged node-set.
        ldoc = self._parsed(
            "<a><b><c i='1'/><c i='2'/></b><b><c i='3'/></b></a>"
        )
        result = self.xpath(ldoc, "/a/b/c[1]")
        assert [node.attribute("i").value for node in result] == ["1", "3"]

    def test_reverse_axis_counts_in_proximity_order(self):
        # ancestor::*[1] is the nearest ancestor, not the root.
        ldoc = self._parsed("<a><b><c><d/></c></b></a>")
        leaf = self.xpath(ldoc, "//d")[0]
        assert names(
            self.xpath(ldoc, "ancestor::*[1]", context=leaf)
        ) == ["c"]
        assert names(
            self.xpath(ldoc, "ancestor::*[3]", context=leaf)
        ) == ["a"]
        assert names(
            self.xpath(ldoc, "preceding-sibling::*[1]",
                       context=self.xpath(ldoc, "//b")[0])
        ) == []

    def test_preceding_positional_counts_backwards(self):
        ldoc = self._parsed("<a><x/><y/><z/></a>")
        z = self.xpath(ldoc, "//z")[0]
        assert names(
            self.xpath(ldoc, "preceding-sibling::*[1]", context=z)
        ) == ["y"]
        assert names(
            self.xpath(ldoc, "preceding::*[2]", context=z)
        ) == ["x"]

    def test_bracket_inside_quoted_literal(self):
        # A ']' inside a predicate string literal must not close the
        # predicate during bracket scanning.
        ldoc = self._parsed("<a><b x=']'/><b x='other'/></a>")
        result = self.xpath(ldoc, "/a/b[@x=']']")
        assert len(result) == 1
        assert result[0].attribute("x").value == "]"

    def test_union_bar_inside_quoted_literal(self):
        ldoc = self._parsed("<a><b x='|'/><b x='other'/></a>")
        result = self.xpath(ldoc, "/a/b[@x='|']")
        assert len(result) == 1
        assert result[0].attribute("x").value == "|"

    def test_slash_inside_quoted_literal(self):
        ldoc = self._parsed("<a><b x='p/q'/></a>")
        result = self.xpath(ldoc, "/a/b[@x='p/q']")
        assert len(result) == 1


class TestConfirmedBugsAccelerated(TestConfirmedBugs):
    accelerated = True


#: Paths whose merges cover every ordering case: duplicates from many
#: contexts, reverse-axis proximity predicates, attributes and unions.
MERGE_PATHS = (
    "//*", "//*/..", "//*/@*", "//*/ancestor::*[1]",
    "//*/preceding-sibling::*[1]", "//*/following::*[2]",
    "//*[@id] | //*/*[1]", "//@* | //*",
)


def assert_merges_agree(ldoc, accelerator):
    """Every merge path answers alike on the scan and index paths."""
    for path in MERGE_PATHS:
        expected = reference_xpath(ldoc, path)
        got = xpath(ldoc, path)
        assert not accelerator.stale  # its positions ordered the merges
        assert_same_nodes(got, expected, path)


class TestPositionOrderedMerge:
    """The accelerator orders results only from current positions."""

    @pytest.mark.parametrize("scheme_name", all_scheme_names())
    @settings(max_examples=3, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(applied=programs(max_size=5), undone=programs(max_size=5))
    def test_matches_scan_path_under_updates(self, scheme_name, applied,
                                             undone):
        ldoc = labeled(fresh_random_document(30, seed=5), scheme_name)
        accelerator = ldoc.accelerator()
        assert_merges_agree(ldoc, accelerator)
        run_program(ldoc, ldoc.updates, applied)
        assert_merges_agree(ldoc, accelerator)
        with pytest.raises(RuntimeError):
            with ldoc.transaction() as txn:
                run_program(ldoc, txn, undone, start=len(applied))
                raise RuntimeError("roll back")
        assert_merges_agree(ldoc, accelerator)

    def test_current_index_never_lists_the_document(self, monkeypatch):
        repository = open_repository("memory://")
        stored = repository.add(
            "doc", "<a><b><c/><c/></b><b><c/></b></a>", scheme="qed"
        )
        stored.ldoc.accelerator().nodes()  # built
        root = stored.ldoc.document.root
        stored.ldoc.updates.prepend_child(root, "c")  # a splice, no rebuild

        def whole_document_scan(document):
            raise AssertionError("Document.labeled_nodes() was called")

        monkeypatch.setattr(Document, "labeled_nodes", whole_document_scan)
        assert names(stored.xpath("//c/.. | //b")) == ["a", "b", "b"]
        assert len(stored.xpath("//c")) == 4

    def test_stale_index_never_orders_results(self):
        ldoc = labeled(parse("<a><b><c/></b><d><e/></d></a>"), "qed")
        stale = ldoc.accelerator()
        stale.nodes()
        ldoc.unsubscribe_deltas(stale)
        root = ldoc.document.root
        ldoc.updates.move(root.element_children()[-1], root, 0)
        # EXPLAIN's recorder runs the query path, so it meets the same
        # refusal: no step is answered, and no merge ordered, from the
        # stale positions or by a label scan.
        evaluator = XPathEvaluator(
            ldoc, recorder=PlanRecorder(StatsCollector.collect(ldoc)),
        )
        with pytest.raises(StaleIndexError):
            evaluator.evaluate("//* | /a/b")
        assert evaluator.recorder.steps == []
