"""An XML repository end to end: ingest, query, snapshot, advise.

The survey's framing — "the adoption of XML repositories in mainstream
industry" — as a working session: pick schemes with the section 5.2
selection advice, open a repository over a storage backend, ingest
documents, answer pattern queries through structural joins over labels,
and snapshot/restore with the bit-exact label codecs.

    python examples/repository.py

Swap the ``memory://`` URL for ``sqlite:///catalog.db`` or
``pagefile:///catalog.pages`` and the same session persists to disk.
"""

from repro.store import open_repository, suggest_scheme

CATALOG = """
<catalog>
  <category name="databases">
    <book><title>Readings in Database Systems</title><year>2005</year></book>
    <book><title>Transaction Processing</title><year>1992</year></book>
  </category>
  <category name="xml">
    <book><title>XPath 2.0 Programmer's Reference</title><year>2004</year></book>
  </category>
</catalog>
"""

ORDERS = """
<orders>
  <order id="1"><item sku="A1"/><item sku="B2"/></order>
  <order id="2"><item sku="A1"/></order>
</orders>
"""


def main():
    # 1. Section 5.2's advice: which scheme fits the requirements?
    requirements = ["version-control", "large-documents", "compact"]
    suggested = suggest_scheme(requirements)
    print("requirements:", ", ".join(requirements))
    print("Figure 7 suggests:", ", ".join(suggested), "\n")

    # 2. Open a repository (in-RAM here; sqlite:/// or pagefile:///
    #    for disk) and ingest documents under the suggested scheme.
    repo = open_repository("memory://", default_scheme=suggested[0])
    repo.add("catalog", CATALOG)
    repo.add("orders", ORDERS, scheme="qed")

    # 3. Index-driven queries: structural joins over labels, no tree
    #    navigation.
    catalog = repo.get("catalog")
    titles = catalog.descendant_path(["category", "book", "title"])
    print("catalog//category//book//title:")
    for title in titles:
        print("  -", title.text_value())
    print("\nbooks from 2004:",
          [n.parent.element_children()[0].text_value()
           for n in catalog.find_value("2004")])

    # 4. Snapshot, edit, restore — labels survive bit-identically.
    snapshot = repo.snapshot("catalog")
    shelf = catalog.find("category")[0]
    catalog.ldoc.updates.append_child(shelf, "book")
    print("\nafter edit, live catalog has",
          len(catalog.find("book")), "books")
    frozen = repo.restore(snapshot, name="catalog@v1")
    print("restored snapshot has", len(frozen.find("book")), "books")

    # 5. Storage accounting across the repository.
    print("\nstorage report:")
    for name, scheme, nodes, bits in repo.storage_report():
        print(f"  {name:12s} scheme={scheme:6s} nodes={nodes:3d} "
              f"label-bits={bits}")


if __name__ == "__main__":
    main()
