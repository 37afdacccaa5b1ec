"""Update processing cost across schemes (section 3.1 / section 5).

Times one insertion under each scheme and tabulates the relabelling bill
per workload — the cost asymmetry between the persistent schemes
(ORDPATH, ImprovedBinary, QED, CDQS, Vector: zero nodes moved) and the
relabelling schemes (preorder/postorder moves nearly everything).
"""

import pytest

from _common import bench_args, fresh
from repro.schemes.registry import FIGURE7_ORDER
from repro.updates.workloads import random_insertions, skewed_insertions
from repro.xmlmodel.generator import random_document

PERSISTENT = {"ordpath", "improved-binary", "qed", "cdqs", "vector"}
DOCUMENT_NODES = 200
INSERTS = 40
QUICK_INSERTS = 15


def build(scheme_name):
    return fresh(scheme_name, random_document(DOCUMENT_NODES, seed=99))


@pytest.mark.parametrize("scheme_name", [
    "prepost", "dewey", "ordpath", "qed", "cdqs", "vector",
])
def bench_single_append(benchmark, scheme_name):
    """Cost of appending one element at the root, per scheme.

    Each round gets a fresh labelled document so the measured insertion
    always runs against the same 200-node state (a growing document
    would make later rounds quadratically slower, especially for the
    relabelling schemes).
    """
    def setup():
        ldoc = build(scheme_name)
        return (ldoc, ldoc.document.root), {}

    def append_one(ldoc, root):
        ldoc.updates.append_child(root, "bench")
        return ldoc

    ldoc = benchmark.pedantic(append_one, setup=setup, rounds=10)
    if scheme_name in PERSISTENT:
        assert ldoc.log.relabeled_nodes == 0


def bench_relabel_bill_table(benchmark):
    """Nodes relabelled by 40 random + 40 skewed insertions, per scheme."""
    def regenerate():
        table = {}
        for name in FIGURE7_ORDER:
            ldoc = build(name)
            random_insertions(ldoc, 40, seed=6)
            skewed_insertions(ldoc, 40)
            table[name] = ldoc.log.relabeled_nodes
        return table

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    for name in PERSISTENT:
        assert table[name] == 0, (name, table[name])
    # Global-order labelling pays the heaviest bill.
    assert table["prepost"] > table["dewey"] > 0


def main(argv=None):
    args = bench_args(__doc__, argv)
    inserts = QUICK_INSERTS if args.quick else INSERTS
    print(f"Relabelled nodes after {inserts} random + {inserts} skewed "
          f"insertions ({DOCUMENT_NODES}-node document)")
    rows = []
    for name in FIGURE7_ORDER:
        ldoc = build(name)
        random_insertions(ldoc, inserts, seed=6)
        skewed_insertions(ldoc, inserts)
        persistent = ldoc.log.relabeled_nodes == 0
        marker = "persistent" if persistent else ""
        print(f"  {name:18s} {ldoc.log.relabeled_nodes:8d}  {marker}")
        rows.append({"scheme": name,
                     "relabeled_nodes": ldoc.log.relabeled_nodes,
                     "persistent": persistent})
    return rows


if __name__ == "__main__":
    main()
