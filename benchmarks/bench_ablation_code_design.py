"""Ablation: the two design axes inside the string-scheme family.

DESIGN.md calls out the 2x2 design space the Li/Ling line of work walks:

                    sparse one-sided rules     compact shortest-code
    binary codes    ImprovedBinary [13]        CDBS [15]
    quaternary      QED [14]                   CDQS [16]

The alphabet axis buys the separator trick (quaternary reserves 00 and
becomes overflow-free; binary cannot spare a symbol and keeps a length
field), and the allocation axis buys compactness.  This bench isolates
both effects on identical inputs.
"""

from _common import bench_args, fresh
from repro.updates.workloads import skewed_insertions
from repro.xmlmodel.builder import wide_tree

SCHEMES = {
    ("binary", "sparse"): "improved-binary",
    ("binary", "compact"): "cdbs",
    ("quaternary", "sparse"): "qed",
    ("quaternary", "compact"): "cdqs",
}

SIBLINGS = 200
PRESSURE = 200


def regenerate():
    results = {}
    for (alphabet, allocation), name in SCHEMES.items():
        # Bulk compactness on a flat 200-sibling document.
        bulk = fresh(name, wide_tree(SIBLINGS))
        bulk_bits = bulk.total_label_bits() / (SIBLINGS + 1)
        # Overflow behaviour under one-position pressure (tight fields
        # where the scheme has them).
        config = {"length_field_bits": 6} if alphabet == "binary" else {}
        pressured = fresh(name, **config)
        skewed_insertions(pressured, PRESSURE)
        results[name] = {
            "alphabet": alphabet,
            "allocation": allocation,
            "bulk_bits_per_label": round(bulk_bits, 1),
            "relabel_events": pressured.log.relabel_events,
            "overflow_events": pressured.log.overflow_events,
        }
    return results


def bench_ablation_code_design(benchmark):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    # Allocation axis: compact beats sparse within each alphabet.
    assert results["cdbs"]["bulk_bits_per_label"] <= (
        results["improved-binary"]["bulk_bits_per_label"]
    )
    assert results["cdqs"]["bulk_bits_per_label"] <= (
        results["qed"]["bulk_bits_per_label"]
    )
    # Alphabet axis: only the quaternary (separator) designs escape the
    # overflow problem under pressure.
    assert results["improved-binary"]["overflow_events"] >= 1
    assert results["cdbs"]["overflow_events"] >= 1
    assert results["qed"]["overflow_events"] == 0
    assert results["cdqs"]["overflow_events"] == 0
    assert results["qed"]["relabel_events"] == 0
    assert results["cdqs"]["relabel_events"] == 0


def main(argv=None):
    bench_args(__doc__, argv)  # ablation grid is constant-sized
    results = regenerate()
    print("Ablation: alphabet x allocation "
          f"({SIBLINGS} siblings bulk; {PRESSURE} skewed inserts)")
    print(f"{'scheme':17s} {'alphabet':11s} {'allocation':11s} "
          f"{'bulk b/label':>12s} {'relabels':>9s} {'overflows':>10s}")
    for name, stats in results.items():
        print(f"{name:17s} {stats['alphabet']:11s} {stats['allocation']:11s} "
              f"{stats['bulk_bits_per_label']:12.1f} "
              f"{stats['relabel_events']:9d} {stats['overflow_events']:10d}")


if __name__ == "__main__":
    main()
