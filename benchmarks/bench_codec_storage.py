"""Physical label storage: the bit-exact codecs over every scheme.

Encodes the whole label table of one document under each scheme's
storage layout (section 4's fixed-width / length-field / self-delimiting
designs) and reports real bytes — then proves the streams decode back
bit-identically.  This is the storage column of the survey's analysis
with actual bits instead of models.
"""

import pytest

from _common import bench_args, fresh
from repro.encoding.codec import codec_for, supported_codec_schemes
from repro.xmlmodel.generator import random_document

DOCUMENT_NODES = 300


def build(scheme_name):
    ldoc = fresh(scheme_name, random_document(DOCUMENT_NODES, seed=29))
    return ldoc, ldoc.labels_in_document_order()


def regenerate():
    table = {}
    for name in supported_codec_schemes():
        ldoc, labels = build(name)
        codec = codec_for(ldoc.scheme)
        data, bits = codec.encode_labels(labels)
        assert codec.decode_labels(data) == labels
        table[name] = {
            "labels": len(labels),
            "stream_bytes": len(data),
            "payload_bits": bits,
            "bits_per_label": bits / len(labels),
        }
    return table


def bench_codec_encode_all_schemes(benchmark):
    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    # The self-delimiting quaternary stream is the most compact string
    # layout; fixed 3-word containment labels cost exactly 96 bits each.
    assert table["prepost"]["bits_per_label"] == 96.0
    assert table["cdqs"]["bits_per_label"] < table["improved-binary"][
        "bits_per_label"
    ]


@pytest.mark.parametrize("scheme_name", ["qed", "prepost", "vector"])
def bench_codec_round_trip(benchmark, scheme_name):
    ldoc, labels = build(scheme_name)
    codec = codec_for(ldoc.scheme)

    def round_trip():
        data, _bits = codec.encode_labels(labels)
        return codec.decode_labels(data)

    assert benchmark(round_trip) == labels


def main(argv=None):
    bench_args(__doc__, argv)  # codec sweep is already CI-sized
    table = regenerate()
    print(f"Encoded label streams ({DOCUMENT_NODES}-node document)")
    print(f"{'scheme':17s} {'labels':>6s} {'bytes':>8s} {'bits/label':>11s}")
    for name, stats in sorted(
        table.items(), key=lambda item: item[1]["bits_per_label"]
    ):
        print(f"{name:17s} {stats['labels']:6d} {stats['stream_bytes']:8d} "
              f"{stats['bits_per_label']:11.1f}")


if __name__ == "__main__":
    main()
