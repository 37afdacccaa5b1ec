"""Section 3.1.1 claim: gap and float containment labelling do not scale.

"Several extensions were proposed which permit gaps in the labelling
schemes ... these solutions serve to increase the label size through the
sparse allocation of labels and only postpone the relabelling process
until the interval gaps have been consumed" — and float labels (QRS)
"suffer from the same limitations".

The bench sweeps gap sizes and measures how many skewed insertions each
configuration absorbs before its first relabel, plus where IEEE-754
doubles give out for QRS.
"""

from _common import bench_args, fresh

GAPS = [4, 8, 16, 64]
PRESSURE = 120


def inserts_before_first_relabel(ldoc, limit=PRESSURE):
    anchor = ldoc.document.root.element_children()[-1]
    for count in range(1, limit + 1):
        ldoc.updates.insert_before(anchor, "skew")
        if ldoc.log.relabel_events:
            return count
    return limit + 1


def regenerate():
    results = {}
    for gap in GAPS:
        ldoc = fresh("xrel", gap=gap)
        results[f"xrel gap={gap}"] = inserts_before_first_relabel(ldoc)
    results["qrs (float64)"] = inserts_before_first_relabel(
        fresh("qrs"), limit=200
    )
    results["qed (no gaps needed)"] = inserts_before_first_relabel(
        fresh("qed"), limit=200
    )
    return results


def bench_gap_postponement(benchmark):
    results = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    # Bigger gaps postpone longer but every gap eventually relabels.
    absorbed = [results[f"xrel gap={gap}"] for gap in GAPS]
    assert absorbed == sorted(absorbed)
    assert absorbed[-1] <= PRESSURE
    # QRS exhausts double precision after ~50 midpoint halvings.
    assert results["qrs (float64)"] <= 80
    # QED never relabels: the run completes without an event.
    assert results["qed (no gaps needed)"] == 201


def main(argv=None):
    bench_args(__doc__, argv)  # sweep is already CI-sized
    results = regenerate()
    print("Skewed insertions absorbed before the first relabel")
    rows = []
    for configuration, count in results.items():
        never = count > PRESSURE
        note = " (never relabelled)" if never else ""
        print(f"  {configuration:24s} {count:4d}{note}")
        rows.append({"configuration": configuration,
                     "inserts_absorbed": count,
                     "never_relabelled": never})
    return rows


if __name__ == "__main__":
    main()
