"""Figure 3: the DeweyID-labelled example tree."""

from _common import bench_args
from repro.data.sample import FIGURE_3_DEWEY_LABELS, figure3_tree
from repro.schemes.prefix.dewey import DeweyScheme


def regenerate():
    document = figure3_tree()
    scheme = DeweyScheme()
    labels = scheme.label_tree(document)
    return [
        scheme.format_label(labels[node.node_id])
        for node in document.labeled_nodes()
    ]


def bench_figure3_dewey_labelling(benchmark):
    rendered = benchmark(regenerate)
    assert rendered == FIGURE_3_DEWEY_LABELS


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    rendered = regenerate()
    print("Figure 3 — DeweyID labelled XML tree")
    for label in rendered:
        print(f"  {label}")
    matches = rendered == FIGURE_3_DEWEY_LABELS
    print("matches paper:", matches)


if __name__ == "__main__":
    main()
