"""Label stream codecs against the per-label, per-bit oracle.

``tests/reference_codec.py`` runs the original encode/decode loops over
the bit-list bit I/O, with the original per-digit quaternary loop for
QED and CDQS.  Every codec must produce the same bytes and payload bit
count, decode to the same labels, and fail on the same truncated
streams.  QED/CDQS codes that the separator cannot delimit are refused
rather than written.
"""

import pytest
from conftest import labeled
from hypothesis import HealthCheck, given, settings, strategies as st
from reference_codec import reference_decode, reference_encode
from update_programs import DOCUMENT_XML, programs, run_step

from repro.encoding.codec import (
    LabelStreamCodec,
    codec_for,
    supported_codec_schemes,
)
from repro.errors import InvalidLabelError, ReproError
from repro.schemes.registry import make_scheme
from repro.xmlmodel.parser import parse
from repro.xmlmodel.xmark import xmark_document

CODEC_SCHEMES = supported_codec_schemes()


def test_all_sixteen_codecs_are_covered():
    assert len(CODEC_SCHEMES) == 16


@pytest.fixture(scope="module")
def xmark_scale_10():
    return xmark_document(scale=10, seed=12)


def assert_matches_reference(codec, labels):
    data, bits = codec.encode_labels(labels)
    assert (data, bits) == reference_encode(codec, labels)
    assert codec.decode_labels(data) == labels
    assert reference_decode(codec, data) == labels
    return data


@pytest.mark.parametrize("scheme_name", CODEC_SCHEMES)
def test_xmark_scale_10_streams_are_byte_identical(scheme_name,
                                                   xmark_scale_10):
    ldoc = labeled(xmark_scale_10, scheme_name)
    labels = ldoc.labels_in_document_order()
    assert len(labels) == 6070
    assert_matches_reference(codec_for(ldoc.scheme), labels)


@pytest.mark.parametrize("scheme_name", CODEC_SCHEMES)
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(max_size=10))
def test_streams_after_update_programs_match(scheme_name, program):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    for serial, step in enumerate(program):
        try:
            run_step(ldoc, ldoc.updates, step, serial)
        except ReproError:  # e.g. a sector collision: stop, encode as is
            break
    assert_matches_reference(codec_for(ldoc.scheme),
                             ldoc.labels_in_document_order())


@pytest.mark.parametrize("scheme_name", CODEC_SCHEMES)
def test_truncated_streams_raise_like_the_reference(scheme_name):
    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    codec = codec_for(ldoc.scheme)
    data = assert_matches_reference(codec, ldoc.labels_in_document_order())
    for cut in range(len(data)):
        with pytest.raises(InvalidLabelError):
            codec.decode_labels(data[:cut])
        with pytest.raises(InvalidLabelError):
            reference_decode(codec, data[:cut])


@pytest.mark.parametrize("scheme_name", ["qed", "cdqs"])
@pytest.mark.parametrize("bad_label", [
    ("102",), ("2", "0"), ("4",), ("12a",), ("2", ""), ("",), ("1_2",),
])
def test_codes_the_separator_cannot_delimit_are_refused(scheme_name,
                                                        bad_label):
    codec = codec_for(make_scheme(scheme_name))
    with pytest.raises(InvalidLabelError):
        codec.encode_labels([(), ("2",), bad_label])


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.lists(
    st.text(alphabet="123", min_size=1, max_size=9), max_size=6,
).map(tuple), max_size=12))
def test_arbitrary_quaternary_labels_match(labels):
    """Any well-formed code tuples, the empty label included."""
    assert_matches_reference(codec_for(make_scheme("qed")), labels)


@pytest.mark.parametrize("scheme_name", ["qed", "cdqs"])
def test_single_label_reads_leave_the_reader_after_the_label(scheme_name):
    from repro.labels.bitio import BitReader, BitWriter

    ldoc = labeled(parse(DOCUMENT_XML), scheme_name)
    codec = codec_for(ldoc.scheme)
    labels = ldoc.labels_in_document_order()
    writer = BitWriter()
    for label in labels:
        codec.write_label(writer, label)
    writer.write_bits(0b1011, 4)  # trailing data after the last label
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert [codec.read_label(reader) for _ in labels] == labels
    assert reader.read_bits(4) == 0b1011
    assert reader.exhausted


@pytest.mark.parametrize("scheme_name", CODEC_SCHEMES)
def test_encode_and_decode_labels_are_the_only_entry_points(scheme_name):
    """The per-layer benchmark times the base-class methods; a codec that
    overrode them would hide its work from that layer."""
    codec_class = type(codec_for(make_scheme(scheme_name)))
    assert codec_class.encode_labels is LabelStreamCodec.encode_labels
    assert codec_class.decode_labels is LabelStreamCodec.decode_labels


DEWEY_WIDTHS = [8, 12, 16, 32]


@pytest.mark.parametrize("width", DEWEY_WIDTHS)
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs(max_size=10))
def test_dewey_widths_match_the_reference(width, program):
    """Whole-byte widths decode from the bytes, 12 bits from the bit
    reader; all four must agree with the per-field reference."""
    ldoc = labeled(parse(DOCUMENT_XML), "dewey", component_bits=width)
    for serial, step in enumerate(program):
        run_step(ldoc, ldoc.updates, step, serial)
    assert_matches_reference(codec_for(ldoc.scheme),
                             ldoc.labels_in_document_order())


@pytest.mark.parametrize("width", DEWEY_WIDTHS)
def test_dewey_widths_raise_on_truncated_streams(width):
    ldoc = labeled(parse(DOCUMENT_XML), "dewey", component_bits=width)
    codec = codec_for(ldoc.scheme)
    data = assert_matches_reference(codec, ldoc.labels_in_document_order())
    for cut in range(len(data)):
        with pytest.raises(InvalidLabelError):
            codec.decode_labels(data[:cut])
        with pytest.raises(InvalidLabelError):
            reference_decode(codec, data[:cut])


@pytest.mark.parametrize("width", DEWEY_WIDTHS)
def test_dewey_widths_at_xmark_scale(width):
    """Components up to the widest 8-bit sibling ordinal, at scale 1."""
    ldoc = labeled(xmark_document(scale=1, seed=3), "dewey",
                   component_bits=width)
    assert_matches_reference(codec_for(ldoc.scheme),
                             ldoc.labels_in_document_order())


@pytest.mark.parametrize("width", [8, 16])
def test_dewey_reads_from_a_bit_limited_reader(width):
    """``read_labels`` from a reader whose limit is not a byte boundary
    stops where the bit reader would, and leaves the reader after the
    last label."""
    from repro.labels.bitio import BitReader, BitWriter

    codec = codec_for(make_scheme("dewey", component_bits=width))
    labels = [(1,), (1, 2), (1, 2, 3), ()]
    writer = BitWriter()
    codec.write_labels(writer, labels)
    writer.write_bits(0b101, 3)
    reader = BitReader(writer.getvalue(), writer.bit_length)
    assert codec.read_labels(reader, len(labels)) == labels
    assert reader.read_bits(3) == 0b101
    reader = BitReader(writer.getvalue(), writer.bit_length - 3 - width)
    with pytest.raises(InvalidLabelError):
        codec.read_labels(reader, len(labels))
    assert reader.exhausted
