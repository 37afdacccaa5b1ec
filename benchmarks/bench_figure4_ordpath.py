"""Figure 4: the ORDPATH-labelled tree, including the three insertions.

The grey nodes of Figure 4 are reproduced by running the published
insertion rules: before-first under 1.1 (gives 1.1.-1), after-last under
1.3 (gives 1.3.3), and careting-in between 1.5.1 and 1.5.3 (gives
1.5.2.1).  No existing node may be relabelled.
"""

from _common import bench_args, fresh
from repro.data.sample import (
    FIGURE_4_INITIAL_ORDPATH_LABELS,
    FIGURE_4_INSERTED,
    figure_tree,
)


def regenerate():
    ldoc = fresh("ordpath", figure_tree())
    initial = [
        ldoc.format_label(node) for node in ldoc.document.labeled_nodes()
    ]
    node_11, node_13, node_15 = ldoc.document.root.element_children()
    inserted = {
        "before_first_under_1.1": ldoc.format_label(
            ldoc.updates.prepend_child(node_11, "new").node
        ),
        "after_last_under_1.3": ldoc.format_label(
            ldoc.updates.append_child(node_13, "new").node
        ),
        "between_1.5.1_and_1.5.3": ldoc.format_label(
            ldoc.updates.insert_after(
                node_15.element_children()[0], "new").node
        ),
    }
    return initial, inserted, ldoc


def bench_figure4_ordpath(benchmark):
    initial, inserted, ldoc = benchmark(regenerate)
    assert initial == FIGURE_4_INITIAL_ORDPATH_LABELS
    assert inserted == FIGURE_4_INSERTED
    assert ldoc.log.relabeled_nodes == 0


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    initial, inserted, ldoc = regenerate()
    print("Figure 4 — ORDPATH labelled XML tree")
    print("  initial:", " ".join(initial))
    for description, label in inserted.items():
        print(f"  inserted {description}: {label}")
    print("relabelled existing nodes:", ldoc.log.relabeled_nodes)
    matches = (initial == FIGURE_4_INITIAL_ORDPATH_LABELS
               and inserted == FIGURE_4_INSERTED)
    print("matches paper:", matches)
    return [{"figure": "4", "inserted": dict(inserted),
             "relabeled_nodes": ldoc.log.relabeled_nodes,
             "matches_paper": matches}]


if __name__ == "__main__":
    main()
