"""Figure 6: the ImprovedBinary-labelled tree and its five insertions."""

from _common import bench_args, fresh
from repro.data.sample import (
    FIGURE_6_INITIAL_LABELS,
    FIGURE_6_INSERTED,
    FIGURE_6_SHAPE,
)
from repro.xmlmodel.builder import tree_from_shape


def regenerate():
    ldoc = fresh("improved-binary", tree_from_shape(FIGURE_6_SHAPE))
    initial = [
        ldoc.format_label(node) for node in ldoc.document.labeled_nodes()
    ]
    node_01, node_0101, node_011 = ldoc.document.root.element_children()
    inserted = {
        "before_first_under_0101": ldoc.format_label(
            ldoc.updates.prepend_child(node_0101, "new").node
        ),
        "after_last_under_0101": ldoc.format_label(
            ldoc.updates.append_child(node_0101, "new").node
        ),
        "between_011.01_and_011.011": ldoc.format_label(
            ldoc.updates.insert_after(
                node_011.element_children()[0], "new").node
        ),
        "between_root_children_01_and_0101": ldoc.format_label(
            ldoc.updates.insert_after(node_01, "new").node
        ),
        "between_root_children_0101_and_011": ldoc.format_label(
            ldoc.updates.insert_after(node_0101, "new").node
        ),
    }
    return initial, inserted, ldoc


def bench_figure6_improved_binary(benchmark):
    initial, inserted, ldoc = benchmark(regenerate)
    assert initial == FIGURE_6_INITIAL_LABELS
    assert inserted == FIGURE_6_INSERTED
    assert ldoc.log.relabeled_nodes == 0


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    initial, inserted, _ldoc = regenerate()
    print("Figure 6 — ImprovedBinary labelled XML tree")
    print("  initial:", " ".join(repr(code) for code in initial))
    for description, label in inserted.items():
        print(f"  inserted {description}: {label}")
    matches = (initial == FIGURE_6_INITIAL_LABELS
               and inserted == FIGURE_6_INSERTED)
    print("matches paper:", matches)


if __name__ == "__main__":
    main()
