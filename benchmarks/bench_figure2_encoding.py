"""Figure 2: the encoding table of the sample document.

Regenerates all ten rows (pre, post, node type, parent, name, value) and
times table construction plus the Definition 2 reconstruction.
"""

from _common import bench_args
from repro.data.sample import FIGURE_2_ROWS, sample_document
from repro.encoding.table import EncodingTable
from repro.schemes.containment.prepost import PrePostScheme


def regenerate():
    table = EncodingTable.from_document(sample_document(), PrePostScheme())
    rows = [
        (
            row.label.pre,
            row.label.post,
            row.node_type,
            None if row.parent_label is None else row.parent_label.pre,
            row.name,
            row.value,
        )
        for row in table
    ]
    return rows, table


def bench_figure2_encoding_table(benchmark):
    rows, table = benchmark(regenerate)
    assert rows == FIGURE_2_ROWS


def bench_figure2_reconstruction(benchmark):
    """Definition 2's closing requirement, timed."""
    _, table = regenerate()
    rebuilt = benchmark(table.reconstruct)
    assert [n.name for n in rebuilt.labeled_nodes()] == [
        row[4] for row in FIGURE_2_ROWS
    ]


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    rows, table = regenerate()
    print("Figure 2 — encoding of the sample XML file")
    print(table.render())
    matches = rows == FIGURE_2_ROWS
    print("matches paper:", matches)


if __name__ == "__main__":
    main()
