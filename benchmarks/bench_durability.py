"""Durability costs: journal append overhead and recovery throughput.

A write-ahead journal buys crash recovery with two new costs: every
update pays an append (whose price depends on the sync policy) and a
crashed process pays a replay.  This benchmark prices both:

* **append overhead** — the same insertion workload run bare and run
  inside journalled transactions, once per sync policy (``never``,
  ``commit``, ``always``), reporting microseconds per operation and the
  overhead factor over the bare path;
* **recovery throughput** — journals of increasing committed-operation
  counts replayed with :func:`repro.durability.journal.recover`,
  reporting operations replayed per second and verifying the recovered
  document is bit-identical (via the label codecs) to the live one.

Run standalone (``python benchmarks/bench_durability.py [--quick]``) or
under pytest, where the assertions guard the claims: recovery
reproduces the exact label stream, and the ``never`` policy is not
slower than ``always`` (fsync is the dominant cost it omits).
"""

from __future__ import annotations

import os
import tempfile
import time

from _common import bench_args, fresh
from repro.durability.journal import SYNC_POLICIES, Journal, recover
from repro.encoding.codec import codec_for
from repro.xmlmodel.generator import random_document

FULL_OPS = 600
QUICK_OPS = 60
FULL_RECOVERY_SIZES = [100, 400, 800]
QUICK_RECOVERY_SIZES = [20, 60]

SCHEME = "cdqs"  # persistent: journalling cost is not masked by relabelling


def _journal_path() -> str:
    handle, path = tempfile.mkstemp(suffix=".journal")
    os.close(handle)
    os.remove(path)
    return path


def _fingerprint(ldoc) -> bytes:
    stream, _bits = codec_for(ldoc.scheme).encode_labels(
        ldoc.labels_in_document_order()
    )
    return stream


def _workload(txn_or_updates, root, ops: int) -> None:
    for index in range(ops):
        txn_or_updates.append_child(root, f"n{index}")


def run_append_overhead(ops: int):
    """Bare per-op inserts vs journalled transactions, per sync policy."""
    records = []

    ldoc = fresh(SCHEME, random_document(200, seed=11))
    started = time.perf_counter()
    _workload(ldoc.updates, ldoc.document.root, ops)
    bare = time.perf_counter() - started
    records.append({"policy": "(none)", "secs": bare, "ops": ops})

    for policy in SYNC_POLICIES:
        ldoc = fresh(SCHEME, random_document(200, seed=11))
        path = _journal_path()
        try:
            with Journal.create(path, ldoc, sync=policy) as journal:
                started = time.perf_counter()
                with ldoc.transaction(journal=journal) as txn:
                    _workload(txn, ldoc.document.root, ops)
                elapsed = time.perf_counter() - started
        finally:
            os.remove(path)
        records.append({"policy": policy, "secs": elapsed, "ops": ops})
    return records


def run_recovery_throughput(sizes):
    """Replay journals of growing size; verify bit-identical labels."""
    records = []
    for ops in sizes:
        ldoc = fresh(SCHEME, random_document(100, seed=7))
        path = _journal_path()
        try:
            with Journal.create(path, ldoc, sync="never") as journal:
                with ldoc.transaction(journal=journal) as txn:
                    _workload(txn, ldoc.document.root, ops)
            started = time.perf_counter()
            result = recover(path)
            elapsed = time.perf_counter() - started
        finally:
            os.remove(path)
        records.append({
            "ops": ops,
            "secs": elapsed,
            "replayed": result.operations_applied,
            "identical": _fingerprint(result.ldoc) == _fingerprint(ldoc),
        })
    return records


def check_append(records) -> None:
    by_policy = {record["policy"]: record for record in records}
    # fsync-per-append must not beat no-sync on the same workload.
    assert by_policy["never"]["secs"] <= by_policy["always"]["secs"] * 2, \
        records


def check_recovery(records) -> None:
    for record in records:
        assert record["identical"], record
        assert record["replayed"] == record["ops"], record


# ----------------------------------------------------------------------
# pytest entry points (quick sizes keep the suite fast)
# ----------------------------------------------------------------------

def bench_journal_append_overhead(benchmark):
    """Journalled transactions price each op at a bounded append cost."""
    records = benchmark.pedantic(
        lambda: run_append_overhead(QUICK_OPS), rounds=1, iterations=1
    )
    check_append(records)


def bench_recovery_throughput(benchmark):
    """Replay reconstructs the exact label stream at useful speed."""
    records = benchmark.pedantic(
        lambda: run_recovery_throughput(QUICK_RECOVERY_SIZES),
        rounds=1, iterations=1,
    )
    check_recovery(records)


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------

def main(argv=None):
    args = bench_args(__doc__, argv)
    ops = QUICK_OPS if args.quick else FULL_OPS
    sizes = QUICK_RECOVERY_SIZES if args.quick else FULL_RECOVERY_SIZES

    append_records = run_append_overhead(ops)
    bare = append_records[0]["secs"]
    print(f"Journal append overhead ({ops} appends, scheme {SCHEME})")
    print(f"  {'sync policy':12s} {'total s':>9s} {'us/op':>8s} "
          f"{'overhead':>9s}")
    for record in append_records:
        per_op = record["secs"] / record["ops"] * 1e6
        factor = record["secs"] / bare if bare else float("inf")
        print(f"  {record['policy']:12s} {record['secs']:9.3f} "
              f"{per_op:8.1f} {factor:8.1f}x")
    check_append(append_records)

    recovery_records = run_recovery_throughput(sizes)
    print()
    print("Recovery throughput (committed ops replayed from journal)")
    print(f"  {'ops':>6s} {'replay s':>9s} {'ops/s':>9s} {'identical':>10s}")
    for record in recovery_records:
        rate = record["replayed"] / record["secs"] if record["secs"] else 0
        print(f"  {record['ops']:6d} {record['secs']:9.3f} "
              f"{rate:9.0f} {str(record['identical']):>10s}")
    check_recovery(recovery_records)

    print("\nall recovered documents bit-identical to the live state; "
          "claims hold")


if __name__ == "__main__":
    main()
