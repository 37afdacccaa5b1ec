"""Figure 5: the LSDX-labelled tree, including the three insertions.

Grey nodes: before-first under 1a.b (gives 2ab.ab), after-last under
1a.c (gives 2ac.c) and between 2ad.b and 2ad.c (gives 2ad.bb).
"""

from _common import bench_args, fresh
from repro.data.sample import (
    FIGURE_5_INITIAL_LSDX_LABELS,
    FIGURE_5_INSERTED,
    figure_tree,
)


def regenerate():
    ldoc = fresh("lsdx", figure_tree())
    initial = [
        ldoc.format_label(node) for node in ldoc.document.labeled_nodes()
    ]
    node_b, node_c, node_d = ldoc.document.root.element_children()
    inserted = {
        "before_first_under_1a.b": ldoc.format_label(
            ldoc.updates.prepend_child(node_b, "new").node
        ),
        "after_last_under_1a.c": ldoc.format_label(
            ldoc.updates.append_child(node_c, "new").node
        ),
        "between_2ad.b_and_2ad.c": ldoc.format_label(
            ldoc.updates.insert_after(node_d.element_children()[0], "new").node
        ),
    }
    return initial, inserted


def bench_figure5_lsdx(benchmark):
    initial, inserted = benchmark(regenerate)
    assert initial == FIGURE_5_INITIAL_LSDX_LABELS
    assert inserted == FIGURE_5_INSERTED


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    initial, inserted = regenerate()
    print("Figure 5 — LSDX labelled XML tree")
    print("  initial:", " ".join(initial))
    for description, label in inserted.items():
        print(f"  inserted {description}: {label}")
    matches = (initial == FIGURE_5_INITIAL_LSDX_LABELS
               and inserted == FIGURE_5_INSERTED)
    print("matches paper:", matches)
    return [{"figure": "5", "inserted": dict(inserted),
             "matches_paper": matches}]


if __name__ == "__main__":
    main()
