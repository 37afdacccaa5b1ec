"""Twig (branching pattern) queries over labels, across schemes.

Pattern matching is the query workload the survey's introduction
motivates ("efficient XML query pattern matching", reference [1]); twig
patterns are its general form.  This bench matches a branching pattern
over the same document under three schemes and checks the label-only
matcher against the XPath-with-predicates evaluator.
"""

import pytest

from _common import bench_args, fresh
from repro.axes.xpath import xpath
from repro.store.twig import TwigMatcher, child, descendant, twig
from repro.xmlmodel.generator import GeneratorProfile, random_document

DOCUMENT_NODES = 400

PATTERN = twig("record", child("name"), descendant("entry"))


def build(scheme_name):
    return fresh(
        scheme_name,
        random_document(
            DOCUMENT_NODES, seed=41, profile=GeneratorProfile.bibliography()
        ),
    )


@pytest.mark.parametrize("scheme_name", ["qed", "dewey", "prepost"])
def bench_twig_match(benchmark, scheme_name):
    ldoc = build(scheme_name)
    matcher = TwigMatcher(ldoc, allow_fallback=True)
    matcher.indexes.refresh()  # prebuild: measure matching, not indexing

    result = benchmark(matcher.match, PATTERN)
    assert isinstance(result, list)


def bench_twig_agrees_across_schemes(benchmark):
    def check():
        reference = None
        for scheme_name in ("qed", "dewey", "vector"):
            ldoc = build(scheme_name)
            matcher = TwigMatcher(ldoc, allow_fallback=True)
            ids = [n.node_id for n in matcher.match(PATTERN)]
            if reference is None:
                reference = ids
            assert ids == reference
        return len(reference)

    count = benchmark.pedantic(check, rounds=1, iterations=1)
    assert count >= 0


def bench_twig_matches_xpath_predicates(benchmark):
    def check():
        ldoc = build("qed")
        matcher = TwigMatcher(ldoc)
        # The pattern without the descendant branch maps onto our XPath
        # predicate subset exactly.
        simple = twig("record", child("name"))
        twig_ids = [n.node_id for n in matcher.match(simple)]
        xpath_ids = [n.node_id for n in xpath(ldoc, "//record[name]")]
        assert twig_ids == xpath_ids
        return len(twig_ids)

    benchmark.pedantic(check, rounds=1, iterations=1)


def main(argv=None):
    bench_args(__doc__, argv)  # pattern match is already CI-sized
    for scheme_name in ("qed", "dewey", "prepost"):
        ldoc = build(scheme_name)
        matcher = TwigMatcher(ldoc, allow_fallback=True)
        matches = matcher.match(PATTERN)
        print(f"{scheme_name:8s} record[name][.//entry] -> "
              f"{len(matches)} matches")


if __name__ == "__main__":
    main()
