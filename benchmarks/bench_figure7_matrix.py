"""Figure 7: the evaluation framework matrix — the paper's headline table.

Runs every probe over all twelve surveyed schemes, rebuilds the 12 x 10
matrix and asserts cell-for-cell agreement with the published grades.
Also reproduces the section 5.2 analysis: CDQS satisfies the greatest
number of properties.
"""

from _common import bench_args
from repro.core.matrix import EvaluationMatrix
from repro.core.report import most_generic_scheme, reproduction_report


def regenerate():
    return EvaluationMatrix.generate()


def bench_figure7_matrix(benchmark):
    matrix = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    assert matrix.diff_against_paper() == []
    assert most_generic_scheme(matrix) == "cdqs"


def bench_figure7_single_row(benchmark):
    """Per-row probe cost (the CDQS row, the framework's busiest)."""
    from repro.core.matrix import EvaluationFramework

    framework = EvaluationFramework()
    row = benchmark.pedantic(framework.evaluate, args=("cdqs",), rounds=3)
    assert row.grades


def main(argv=None):
    bench_args(__doc__, argv)  # fixed-size reproduction; --quick is a no-op
    matrix = regenerate()
    print(reproduction_report(matrix))
    print()
    print("Section 5.2 analysis — most generic scheme:",
          most_generic_scheme(matrix))


if __name__ == "__main__":
    main()
