"""Batched updates vs per-operation updates (the bulk-loading fast path).

The survey prices every insertion at the scheme's worst case: DeweyID
shifts follow-siblings, the XPath Accelerator recomputes the whole
pre/post plane, Cohen renumbers.  Applied per-operation, a 2000-insert
workload therefore pays up to 2000 relabelling passes.  The
:class:`~repro.updates.batch.UpdateBatch` engine defers labelling to a
single consolidated pass, so the same workload pays at most one.

This benchmark runs the two paths over identical workloads and reports,
per scheme, wall-clock time, relabel passes/relabelled nodes (from the
update log) and label comparisons (from the metrics registry):

* ``skewed_insertions`` — every insert lands before one fixed anchor,
  the survey's skewed frequent-update scenario;
* XMark bulk bids — a stream of ``bidder`` appends into one hot open
  auction of a generated auction-site document.

Run standalone (``python benchmarks/bench_batch_updates.py [--quick]``)
or under pytest, where the assertions guard the claim: on every
relabelling scheme the batch does fewer relabel passes and fewer label
comparisons than per-op, and is not slower on the big workloads.
"""

from __future__ import annotations

import time

from _common import bench_args, fresh
from repro.observability.metrics import get_registry
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.xmark import xmark_document

#: Relabelling schemes — where deferred consolidation changes the bill.
RELABELLING_SCHEMES = ["prepost", "dewey", "cohen", "prime"]
#: Persistent schemes — included to show the batch path degenerates
#: gracefully (same labels, no passes either way).
PERSISTENT_SCHEMES = ["qed", "vector"]

FULL_OPS = 2000
QUICK_OPS = 120
FULL_BIDS = 400
QUICK_BIDS = 40


def _measure(build_ldoc, run):
    """Run one workload; return (ldoc, seconds, metric deltas)."""
    ldoc = build_ldoc()
    registry = get_registry()
    with registry.scoped() as delta:
        started = time.perf_counter()
        run(ldoc)
        elapsed = time.perf_counter() - started
    ldoc.verify_order()
    return ldoc, elapsed, delta


def _skewed_anchor(ldoc):
    return ldoc.document.root.element_children()[-1]


def run_skewed(scheme_name, ops, batched):
    """Skewed insertions before one anchor, per-op or batched."""
    def build():
        return fresh(scheme_name, random_document(300, seed=5))

    def per_op(ldoc):
        anchor = _skewed_anchor(ldoc)
        for index in range(ops):
            ldoc.updates.insert_before(anchor, "skew")

    def in_batch(ldoc):
        anchor = _skewed_anchor(ldoc)
        with ldoc.batch() as batch:
            for index in range(ops):
                batch.insert_before(anchor, "skew")

    return _measure(build, in_batch if batched else per_op)


def run_xmark_bulk(scheme_name, bids, batched):
    """Bulk bid load into one hot auction of an XMark document."""
    def build():
        return fresh(scheme_name, xmark_document(scale=0.2, seed=3))

    def hot_auction(ldoc):
        site = ldoc.document.root
        open_auctions = next(
            child for child in site.element_children()
            if child.name == "open_auctions"
        )
        return open_auctions.element_children()[0]

    def per_op(ldoc):
        auction = hot_auction(ldoc)
        for index in range(bids):
            ldoc.updates.prepend_child(auction, "bidder")

    def in_batch(ldoc):
        auction = hot_auction(ldoc)
        with ldoc.batch() as batch:
            for index in range(bids):
                batch.prepend_child(auction, "bidder")

    return _measure(build, in_batch if batched else per_op)


def compare_paths(workload, scheme_name, ops):
    """Both paths of one workload -> comparison record."""
    per_ldoc, per_secs, per_delta = workload(scheme_name, ops, batched=False)
    bat_ldoc, bat_secs, bat_delta = workload(scheme_name, ops, batched=True)
    result = bat_ldoc.last_batch_result
    return {
        "scheme": scheme_name,
        "per_secs": per_secs,
        "bat_secs": bat_secs,
        "per_relabel_events": per_ldoc.log.relabel_events,
        "bat_relabel_passes": result.relabel_passes if result else 0,
        "per_relabeled_nodes": per_ldoc.log.relabeled_nodes,
        "bat_relabeled_nodes": bat_ldoc.log.relabeled_nodes,
        "per_comparisons": per_delta.get("scheme.comparisons", 0),
        "bat_comparisons": bat_delta.get("scheme.comparisons", 0),
        "relabels_avoided": result.relabels_avoided if result else 0,
    }


def check(record):
    """The benchmark's claims, shared by pytest and standalone runs."""
    if record["scheme"] in RELABELLING_SCHEMES:
        assert record["bat_relabel_passes"] < record["per_relabel_events"], \
            record
        assert record["bat_comparisons"] <= record["per_comparisons"], record
        assert record["bat_relabeled_nodes"] <= record["per_relabeled_nodes"], \
            record
    else:
        assert record["bat_relabel_passes"] == 0, record


def _render(records, title):
    lines = [title,
             f"  {'scheme':10s} {'per-op s':>9s} {'batch s':>9s} "
             f"{'speedup':>8s} {'relabels':>9s} {'passes':>7s} "
             f"{'cmp saved':>10s}"]
    for record in records:
        speedup = (record["per_secs"] / record["bat_secs"]
                   if record["bat_secs"] else float("inf"))
        saved = record["per_comparisons"] - record["bat_comparisons"]
        lines.append(
            f"  {record['scheme']:10s} {record['per_secs']:9.3f} "
            f"{record['bat_secs']:9.3f} {speedup:7.1f}x "
            f"{record['per_relabel_events']:9d} "
            f"{record['bat_relabel_passes']:7d} {saved:10.0f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest entry points (quick sizes keep the suite fast)
# ----------------------------------------------------------------------

def bench_skewed_batch_beats_per_op(benchmark):
    """Batching consolidates skewed-insert relabelling on every scheme."""
    def regenerate():
        return [
            compare_paths(run_skewed, name, QUICK_OPS)
            for name in RELABELLING_SCHEMES + PERSISTENT_SCHEMES
        ]

    records = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    for record in records:
        check(record)


def bench_xmark_bulk_load(benchmark):
    """Batched XMark bid streams relabel at most once."""
    def regenerate():
        return [
            compare_paths(run_xmark_bulk, name, QUICK_BIDS)
            for name in ["prepost", "dewey", "cohen"]
        ]

    records = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    for record in records:
        check(record)


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------

def main(argv=None):
    args = bench_args(__doc__, argv)
    ops = QUICK_OPS if args.quick else FULL_OPS
    bids = QUICK_BIDS if args.quick else FULL_BIDS

    schemes = RELABELLING_SCHEMES + PERSISTENT_SCHEMES
    skewed = [compare_paths(run_skewed, name, ops) for name in schemes]
    print(_render(skewed, f"Skewed insertions ({ops} ops)"))
    for record in skewed:
        check(record)

    xmark = [
        compare_paths(run_xmark_bulk, name, bids)
        for name in ["prepost", "dewey", "cohen"]
    ]
    print()
    print(_render(xmark, f"XMark bulk bids ({bids} bids, hot auction)"))
    for record in xmark:
        check(record)

    wins = sum(
        1 for record in skewed + xmark
        if record["bat_relabel_passes"] < record["per_relabel_events"]
    )
    print(f"\nbatch consolidated relabelling on {wins} workload runs; "
          f"all claims hold")


if __name__ == "__main__":
    main()
