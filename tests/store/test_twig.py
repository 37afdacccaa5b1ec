"""Twig pattern matching versus XPath-with-predicates ground truth."""

import pytest

from conftest import labeled
from repro.axes.xpath import xpath
from repro.errors import UnsupportedRelationshipError, XPathError
from repro.store.twig import TwigMatcher, TwigNode, child, descendant, twig
from repro.xmlmodel.parser import parse

LIBRARY = """
<library>
  <section>
    <book><title>Dune</title><author>Herbert</author></book>
    <book><title>Untitled Notes</title></book>
    <journal><title>TODS</title><editor><name>Ed</name></editor></journal>
  </section>
  <section>
    <book><title>Neuromancer</title><author>Gibson</author>
          <review><author>Someone</author></review></book>
  </section>
</library>
"""


@pytest.fixture
def ldoc():
    return labeled(parse(LIBRARY), "qed")


def names_and_text(nodes):
    return [(n.name, n.text_value().strip()) for n in nodes]


class TestPatterns:
    def test_single_node_pattern(self, ldoc):
        matches = TwigMatcher(ldoc).match(twig("journal"))
        assert [n.name for n in matches] == ["journal"]

    def test_branching_pattern(self, ldoc):
        # book[title][author] — only books with both children qualify.
        pattern = twig("book", child("title"), child("author"))
        matches = TwigMatcher(ldoc).match(pattern)
        expected = xpath(ldoc, "//book[title][author]")
        assert [n.node_id for n in matches] == [n.node_id for n in expected]
        assert len(matches) == 2

    def test_child_vs_descendant_edges(self, ldoc):
        # The review's author is a descendant of its book but not a child.
        strict = twig("book", child("author"))
        loose = twig("book", descendant("author"))
        matcher = TwigMatcher(ldoc)
        assert len(matcher.match(strict)) == 2
        assert len(matcher.match(loose)) == 2  # same books here
        # journal//name only matches via descendant.
        assert matcher.match(twig("journal", child("name"))) == []
        assert len(matcher.match(twig("journal", descendant("name")))) == 1

    def test_nested_pattern(self, ldoc):
        pattern = twig(
            "section",
            descendant("book", child("title"), child("author")),
        )
        matches = TwigMatcher(ldoc).match(pattern)
        assert len(matches) == 2  # both sections have a qualifying book

    def test_output_node_selection(self, ldoc):
        # Return the titles of books that also have an author.
        pattern = twig(
            "book", child("author"), child("title", output=True)
        )
        matches = TwigMatcher(ldoc).match(pattern)
        assert names_and_text(matches) == [
            ("title", "Dune"), ("title", "Neuromancer"),
        ]

    def test_deep_output_node(self, ldoc):
        pattern = twig(
            "section", descendant("editor", child("name", output=True))
        )
        matches = TwigMatcher(ldoc).match(pattern)
        assert names_and_text(matches) == [("name", "Ed")]

    def test_no_match(self, ldoc):
        assert TwigMatcher(ldoc).match(twig("magazine")) == []
        assert TwigMatcher(ldoc).match(
            twig("book", child("isbn"))
        ) == []

    def test_count(self, ldoc):
        assert TwigMatcher(ldoc).count(twig("book", child("title"))) == 3


class TestPatternValidation:
    def test_bad_axis_rejected(self):
        with pytest.raises(XPathError):
            TwigNode(name="x", axis="sideways")

    def test_two_outputs_rejected(self, ldoc):
        pattern = twig(
            "book", child("title", output=True), child("author", output=True)
        )
        with pytest.raises(XPathError):
            TwigMatcher(ldoc).match(pattern)


class TestAcrossSchemes:
    @pytest.mark.parametrize("scheme_name", ["qed", "dewey", "ordpath", "cdqs"])
    def test_full_xpath_schemes_agree(self, scheme_name):
        ldoc = labeled(parse(LIBRARY), scheme_name)
        pattern = twig("book", child("title"), child("author"))
        matches = TwigMatcher(ldoc).match(pattern)
        expected = xpath(ldoc, "//book[title][author]")
        assert [n.node_id for n in matches] == [n.node_id for n in expected]

    def test_vector_needs_fallback_for_child_edges(self):
        ldoc = labeled(parse(LIBRARY), "vector")
        pattern = twig("book", child("title"))
        with pytest.raises(UnsupportedRelationshipError):
            TwigMatcher(ldoc, allow_fallback=False).match(pattern)
        matches = TwigMatcher(ldoc, allow_fallback=True).match(pattern)
        assert len(matches) == 3

    def test_vector_descendant_edges_are_label_only(self):
        ldoc = labeled(parse(LIBRARY), "vector")
        pattern = twig("section", descendant("author"))
        matches = TwigMatcher(ldoc, allow_fallback=False).match(pattern)
        assert len(matches) == 2


class TestAfterUpdates:
    def test_matching_tracks_updates(self, ldoc):
        matcher = TwigMatcher(ldoc)
        pattern = twig("book", child("title"), child("author"))
        assert matcher.count(pattern) == 2
        lonely = xpath(ldoc, "//book[title='Untitled Notes']")[0]
        ldoc.updates.append_child(lonely, "author")
        assert matcher.count(pattern) == 3
