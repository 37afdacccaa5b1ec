"""Quickstart: label a document, update it, query it — no relabelling.

Runs the paper's sample document (Figure 1a) through the full public
API with the QED scheme, the survey's exemplar of an overflow-free
dynamic labelling scheme.

    python examples/quickstart.py
"""

from repro import LabeledDocument, make_scheme, parse, serialize
from repro.axes.xpath import xpath
from repro.data.sample import SAMPLE_XML
from repro.encoding.table import EncodingTable


def main():
    # 1. Parse the paper's sample file into the tree representation the
    #    XPath data model (and every labelling scheme) works on.
    document = parse(SAMPLE_XML)
    print("Parsed the Figure 1(a) sample document:",
          document.labeled_size(), "labelled nodes\n")

    # 2. Attach a dynamic labelling scheme.  QED codes can absorb any
    #    number of insertions anywhere without touching existing labels.
    ldoc = LabeledDocument(document, make_scheme("qed"))
    for node in document.labeled_nodes():
        print(f"  {ldoc.format_label(node):12s} <{node.name}>")

    # 3. Structural updates: a new author before the existing one, a new
    #    chapter at the end.  Watch the relabel counter stay at zero.
    author = next(n for n in document.labeled_nodes() if n.name == "author")
    ldoc.updates.insert_before(author, "translator")
    ldoc.updates.append_child(document.root, "appendix")
    print("\nAfter two insertions:")
    print("  relabelled nodes:", ldoc.log.relabeled_nodes)
    ldoc.verify_order()  # labels still sort into document order

    # 4. Query through the mini XPath — the axes are answered from the
    #    labels alone for a prefix scheme like QED.
    print("\nXPath queries:")
    print("  //editor/*        ->",
          [n.name for n in xpath(ldoc, "//editor/*")])
    print("  //edition[@year='2004'] ->",
          [n.name for n in xpath(ldoc, "//edition[@year='2004']")])
    print("  //name/ancestor::* ->",
          [n.name for n in xpath(ldoc, "//name/ancestor::*")])

    # 5. The encoding scheme (Definition 2): a node table that fully
    #    reconstructs the textual document.
    table = EncodingTable.from_labeled_document(ldoc)
    print("\nEncoding table (first 4 rows):")
    for line in table.render().splitlines()[:5]:
        print(" ", line)
    rebuilt = table.reconstruct()
    print("\nReconstructed document:")
    print(" ", serialize(rebuilt)[:72], "...")


if __name__ == "__main__":
    main()
