"""Section 5 claim: vector label growth under skew is much slower than QED.

"under skewed insertions (frequent insertions at a fixed position), the
vector label growth rate is much slower than QED under similar
conditions" — regenerated as a growth series over identical inputs, with
ImprovedBinary and CDQS alongside for the string-scheme baseline.
"""

from _common import bench_args
from repro.analysis.growth import (
    growth_table,
    linearity_ratio,
    render_growth_table,
    skewed_growth_series,
)

SCHEMES = ["qed", "cdqs", "improved-binary", "vector"]
INSERTS = 240
QUICK_INSERTS = 80
STEP = 40


def regenerate(inserts=INSERTS):
    return growth_table(SCHEMES, inserts, step=STEP)


def bench_skewed_growth_series(benchmark):
    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    rates = {name: linearity_ratio(series) for name, series in table.items()}
    # The string schemes grow about a bit (or two) per insertion...
    assert rates["qed"] >= 0.5
    assert rates["cdqs"] >= 0.5
    assert rates["improved-binary"] >= 0.5
    # ...while the vector frontier is flat on this scale.
    assert rates["vector"] <= 0.2
    # And the absolute frontier separation is large ("much slower").
    assert table["vector"][-1].frontier_bits * 3 < table["qed"][-1].frontier_bits


def bench_vector_insertion_throughput(benchmark):
    """Update-cost side of the claim: one skewed vector insertion."""
    def run():
        return skewed_growth_series("vector", 64, step=64)

    series = benchmark(run)
    assert series[-1].relabeled_nodes == 0


def bench_qed_insertion_throughput(benchmark):
    def run():
        return skewed_growth_series("qed", 64, step=64)

    series = benchmark(run)
    assert series[-1].relabeled_nodes == 0


def main(argv=None):
    args = bench_args(__doc__, argv)
    table = regenerate(QUICK_INSERTS if args.quick else INSERTS)
    print("Skewed insertion growth (frontier label bits)")
    print(render_growth_table(table))
    print()
    for name, series in table.items():
        print(f"  {name:16s} bits/insert = {linearity_ratio(series):.3f}")


if __name__ == "__main__":
    main()
