"""Section 6's future work, delivered: extension rows for the framework.

"Using our existing framework, we will now seek to evaluate these and
other schemes" — the paper's conclusion names the Prime number scheme
[25] and DDE [28].  This benchmark runs the unmodified probe suite over all
five implemented extensions (CDBS, Cohen, Com-D, DDE, Prime) and prints
the extended matrix, with the measured grades asserted against what each
scheme's design predicts.
"""

from _common import bench_args
from repro.core.matrix import EvaluationMatrix
from repro.core.properties import Compliance, Property


def regenerate():
    return EvaluationMatrix.generate(include_extensions=True)


def bench_extended_matrix(benchmark):
    matrix = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    # The twelve paper rows still agree with Figure 7.
    assert matrix.diff_against_paper() == []

    # DDE delivers on its title ("From Dewey to a Fully Dynamic XML
    # Labeling Scheme"): persistent, overflow-free, full XPath support.
    dde = matrix.row("dde").grades
    assert dde[Property.PERSISTENT_LABELS] is Compliance.FULL
    assert dde[Property.OVERFLOW_FREEDOM] is Compliance.FULL
    assert dde[Property.XPATH_EVALUATION] is Compliance.FULL
    assert dde[Property.DIVISION_FREEDOM] is Compliance.FULL

    # CDBS: persistent and compact, but its fixed length field brings
    # the overflow problem back — exactly the section 4 judgment.
    cdbs = matrix.row("cdbs").grades
    assert cdbs[Property.PERSISTENT_LABELS] is Compliance.FULL
    assert cdbs[Property.OVERFLOW_FREEDOM] is Compliance.NONE
    assert cdbs[Property.ORTHOGONALITY] is Compliance.FULL

    # Prime: ancestor-by-divisibility works, but SC renumbering on
    # updates costs persistence — the known weakness.
    prime = matrix.row("prime").grades
    assert prime[Property.PERSISTENT_LABELS] is Compliance.NONE
    assert prime[Property.XPATH_EVALUATION] is Compliance.FULL

    # Cohen: excluded from Figure 7 because middle insertion relabels.
    cohen = matrix.row("cohen").grades
    assert cohen[Property.PERSISTENT_LABELS] is Compliance.NONE

    # Com-D inherits LSDX's profile.
    comd = matrix.row("comd").grades
    lsdx = matrix.row("lsdx").grades
    assert comd == lsdx


def main(argv=None):
    bench_args(__doc__, argv)  # probe suite is constant-sized
    matrix = regenerate()
    print(matrix.render())


if __name__ == "__main__":
    main()
