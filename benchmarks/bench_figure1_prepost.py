"""Figure 1(b): the preorder/postorder-labelled sample document.

Regenerates the exact ``pre,post`` labels the paper draws over the tree
representation of the Figure 1(a) sample file, and times the labelling.
"""

from _common import bench_args
from repro.data.sample import FIGURE_1B_PRE_POST, sample_document
from repro.schemes.containment.prepost import PrePostScheme


def regenerate():
    """Label the sample document; return (pre, post) pairs in doc order."""
    document = sample_document()
    scheme = PrePostScheme()
    labels = scheme.label_tree(document)
    return [
        (labels[node.node_id].pre, labels[node.node_id].post)
        for node in document.labeled_nodes()
    ], document


def bench_figure1_prepost_labelling(benchmark):
    pairs, document = benchmark(regenerate)
    assert pairs == FIGURE_1B_PRE_POST


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    pairs, document = regenerate()
    print("Figure 1(b) — pre/post labels of the sample document")
    for (pre, post), node in zip(pairs, document.labeled_nodes()):
        print(f"  {pre},{post}\t{node.kind.value}\t{node.name}")
    matches = pairs == FIGURE_1B_PRE_POST
    print("matches paper:", matches)


if __name__ == "__main__":
    main()
