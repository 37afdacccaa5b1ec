"""The auction workload: an XMark-shaped document under a bidding stream.

The survey's real-world framing ("the real-world requirement to support
efficient updates to XML documents") in one experiment: bulk-load an
auction site, then stream bids into the open auctions — localized
structural growth inside a large, mostly static document.  Reports
bulk-labelling cost, per-scheme relabelling bills for the stream, and
query answers that must stay identical throughout.
"""

import pytest

from _common import bench_args
from repro.axes.xpath import xpath
from repro.schemes.registry import make_scheme
from repro.updates.document import LabeledDocument
from repro.xmlmodel.xmark import bidding_stream, xmark_document

SCALE = 2.0
QUICK_SCALE = 0.4
BIDS = 150
QUICK_BIDS = 30

SCHEMES = ["prepost", "dewey", "ordpath", "qed", "cdqs", "vector"]
PERSISTENT = {"ordpath", "qed", "cdqs", "vector"}


def build(scheme_name, scale=SCALE):
    return LabeledDocument(
        xmark_document(scale=scale, seed=11), make_scheme(scheme_name)
    )


@pytest.mark.parametrize("scheme_name", SCHEMES)
def bench_bulk_load(benchmark, scheme_name):
    document = xmark_document(scale=SCALE, seed=11)
    scheme = make_scheme(scheme_name)
    labels = benchmark(scheme.label_tree, document)
    assert len(labels) == document.labeled_size()


def bench_bidding_stream_relabel_bill(benchmark):
    def regenerate():
        bills = {}
        for scheme_name in SCHEMES:
            ldoc = build(scheme_name)
            result = bidding_stream(ldoc, BIDS, seed=5, hot_auction=0)
            ldoc.verify_order()
            bills[scheme_name] = result.relabeled_nodes
        return bills

    bills = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    for scheme_name in PERSISTENT:
        assert bills[scheme_name] == 0, (scheme_name, bills)
    assert bills["prepost"] > 0


def bench_queries_stable_through_stream(benchmark):
    """Query answers are identical before, during, and after bidding."""
    def check():
        ldoc = build("cdqs")
        people_before = [
            n.node_id for n in xpath(ldoc, "//person/name")
        ]
        bidding_stream(ldoc, BIDS // 2, seed=5, hot_auction=1)
        people_after = [
            n.node_id for n in xpath(ldoc, "//person/name")
        ]
        assert people_after == people_before
        bidders = xpath(ldoc, "//open_auction[2]//bidder")
        return len(bidders)

    bidders = benchmark.pedantic(check, rounds=1, iterations=1)
    assert bidders >= BIDS // 2


def main(argv=None):
    args = bench_args(__doc__, argv)
    scale = QUICK_SCALE if args.quick else SCALE
    bids = QUICK_BIDS if args.quick else BIDS
    site_nodes = xmark_document(scale=scale, seed=11).labeled_size()
    print(f"XMark-style auction site, scale {scale} "
          f"({site_nodes} labelled nodes); "
          f"{bids} bids into one hot auction\n")
    print(f"{'scheme':10s} {'relabelled':>10s} {'max label bits':>15s}")
    for scheme_name in SCHEMES:
        ldoc = build(scheme_name, scale=scale)
        result = bidding_stream(ldoc, bids, seed=5, hot_auction=0)
        print(f"{scheme_name:10s} {result.relabeled_nodes:10d} "
              f"{result.max_label_bits:15d}")


if __name__ == "__main__":
    main()
