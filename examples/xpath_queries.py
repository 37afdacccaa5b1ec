"""XPath over labels: the section 2.2 cost argument, demonstrated.

"Enabling the evaluation of [ancestor-descendant, parent-child and
sibling] relationships from the node label alone contributes
significantly to the reduction of XPath processing costs."

This example runs the same queries over the same bibliography document
labelled by a full prefix scheme (QED: every axis from labels) and by
the vector scheme (only ancestor-descendant from labels), showing
identical answers.  Queries are answered by the document's index; the
label scan then evaluates the three relationship axes from labels alone
and counts how often it had to fall back to tree navigation.

    python examples/xpath_queries.py
"""

from repro import LabeledDocument, make_scheme, parse
from repro.axes.evaluator import AxisEvaluator
from repro.axes.xpath import XPathEvaluator

LIBRARY = """
<library>
  <section genre="fiction">
    <book year="1965"><title>Dune</title><author>Herbert</author></book>
    <book year="1984"><title>Neuromancer</title><author>Gibson</author></book>
  </section>
  <section genre="reference">
    <book year="2004"><title>XPath 2.0</title><author>Kay</author></book>
  </section>
</library>
"""

QUERIES = [
    "/library/section",
    "//book/title",
    "//book[@year='1984']/author",
    "//section[@genre='reference']//title",
    "//author/ancestor::section",
    "//title/following-sibling::author",
    "//book[2]",
]


def main():
    for scheme_name in ("qed", "vector"):
        ldoc = LabeledDocument(parse(LIBRARY), make_scheme(scheme_name))
        evaluator = XPathEvaluator(ldoc)
        print(f"=== {scheme_name} "
              f"(XPath Evaluations grade: "
              f"{'F — all axes from labels' if scheme_name == 'qed' else 'P — ancestor/descendant only'}) ===")
        for query in QUERIES:
            result = evaluator.evaluate(query)
            rendered = [
                node.text_value().strip() or node.name for node in result
            ]
            print(f"  {query:42s} -> {rendered}")
        probe = AxisEvaluator(ldoc, allow_fallback=True)
        title = evaluator.evaluate("//book/title")[0]
        for axis in ("ancestor", "parent", "following-sibling"):
            probe.evaluate(axis, title)
        print(f"  label scan: {probe.fallbacks} of 3 relationship axes "
              f"fell back to tree navigation\n")


if __name__ == "__main__":
    main()
