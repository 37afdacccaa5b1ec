"""Section 4 claim: the overflow problem and who escapes it.

Fixed-length schemes overflow "once all the assigned bits have been
consumed"; variable-length schemes overflow their size field; QED, CDQS
and the vector scheme never relabel.  This bench drives every scheme
through the same high-pressure one-position insertion run against tight
storage fields and tabulates relabel/overflow events.
"""

from _common import bench_args, fresh
from repro.core.probes import TIGHT_STORAGE
from repro.schemes.registry import FIGURE7_ORDER
from repro.updates.workloads import prepend_insertions, skewed_insertions

PRESSURE = 150

#: Figure 7 Overflow Prob. column: the schemes that escape.
OVERFLOW_FREE = {"qed", "cdqs", "vector"}


def run_one(name):
    ldoc = fresh(name, **TIGHT_STORAGE.get(name, {}))
    skewed_insertions(ldoc, PRESSURE)
    prepend_insertions(ldoc, PRESSURE)
    return {
        "relabel_events": ldoc.log.relabel_events,
        "relabeled_nodes": ldoc.log.relabeled_nodes,
        "overflow_events": ldoc.log.overflow_events,
    }


def regenerate():
    return {name: run_one(name) for name in FIGURE7_ORDER}


def bench_overflow_pressure_all_schemes(benchmark):
    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    for name, stats in table.items():
        if name in OVERFLOW_FREE:
            assert stats["relabel_events"] == 0, (name, stats)
            assert stats["overflow_events"] == 0, (name, stats)
        else:
            assert stats["relabel_events"] >= 1, (name, stats)


def bench_qed_under_pressure(benchmark):
    """The overflow-free fast path, timed in isolation."""
    stats = benchmark(run_one, "qed")
    assert stats["relabel_events"] == 0


def bench_dln_under_pressure(benchmark):
    """A fixed-length victim, timed in isolation."""
    stats = benchmark(run_one, "dln")
    assert stats["overflow_events"] >= 1


def main(argv=None):
    bench_args(__doc__, argv)  # pressure run is already CI-sized
    table = regenerate()
    print(f"Overflow pressure: {2 * PRESSURE} one-sided insertions, "
          "tight storage fields")
    print(f"{'scheme':18s} {'relabels':>9s} {'nodes moved':>12s} "
          f"{'overflows':>10s}  escapes?")
    for name, stats in table.items():
        escapes = stats["relabel_events"] == 0
        print(f"{name:18s} {stats['relabel_events']:9d} "
              f"{stats['relabeled_nodes']:12d} "
              f"{stats['overflow_events']:10d}  "
              f"{'yes' if escapes else 'no'}")


if __name__ == "__main__":
    main()
