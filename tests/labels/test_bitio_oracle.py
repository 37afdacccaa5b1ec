"""Word-at-a-time bit I/O against the bit-list oracle.

Random operation sequences run on :mod:`repro.labels.bitio` and on the
original one-element-per-bit classes (``tests/reference_bitio.py``).
After every operation both sides must agree on the value returned or on
raising :class:`InvalidLabelError`, and on the bit length or position;
the bytes must agree at every ``getvalue``.  Widths run to 80 bits so
single writes and reads cross the writer's 64-bit flush boundary.
"""

from hypothesis import given, settings, strategies as st
from reference_bitio import ReferenceBitReader, ReferenceBitWriter

from repro.errors import InvalidLabelError
from repro.labels.bitio import BitReader, BitWriter

WIDTHS = st.integers(min_value=0, max_value=80)


@st.composite
def write_bits_ops(draw):
    width = draw(WIDTHS)
    # Mostly values that fit; sometimes one too large or negative.
    value = draw(st.one_of(
        st.integers(min_value=0, max_value=(1 << width) - 1),
        st.integers(min_value=-3, max_value=(1 << width) + 3),
    ))
    return ("write_bits", value, width)


writer_ops = st.lists(st.one_of(
    st.tuples(st.just("write_bit"), st.integers(min_value=0, max_value=2)),
    write_bits_ops(),
    st.tuples(st.just("write_bits"), st.integers(0, 3),
              st.integers(min_value=-2, max_value=-1)),
    st.tuples(st.just("write_bitstring"),
              st.text(alphabet="01", max_size=90)),
    st.tuples(st.just("write_bitstring"),
              st.text(alphabet="01x2 ", max_size=12)),
    st.tuples(st.just("write_bytes"), st.binary(max_size=12)),
    st.tuples(st.just("getvalue")),
), max_size=40)


def outcome(call):
    try:
        return ("ok", call())
    except InvalidLabelError:
        return ("raised", None)


@settings(max_examples=300, deadline=None)
@given(ops=writer_ops)
def test_writer_matches_bit_list_reference(ops):
    writer, reference = BitWriter(), ReferenceBitWriter()
    for op, *args in ops:
        got = outcome(lambda: getattr(writer, op)(*args))
        expected = outcome(lambda: getattr(reference, op)(*args))
        assert got == expected, (op, args)
        assert writer.bit_length == reference.bit_length
        assert len(writer) == len(reference)
    assert writer.getvalue() == reference.getvalue()


reader_ops = st.lists(st.one_of(
    st.tuples(st.just("read_bit")),
    st.tuples(st.sampled_from(["read_bits", "peek_bits", "read_bitstring"]),
              st.integers(min_value=-2, max_value=80)),
    st.tuples(st.just("read_bytes"), st.integers(min_value=-1, max_value=11)),
), max_size=40)


@st.composite
def streams(draw):
    data = draw(st.binary(max_size=24))
    bit_length = draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=8 * len(data)),
    ))
    return data, bit_length


@settings(max_examples=300, deadline=None)
@given(stream=streams(), ops=reader_ops)
def test_reader_matches_bit_list_reference(stream, ops):
    data, bit_length = stream
    reader = BitReader(data, bit_length)
    reference = ReferenceBitReader(data, bit_length)
    for op, *args in ops:
        got = outcome(lambda: getattr(reader, op)(*args))
        expected = outcome(lambda: getattr(reference, op)(*args))
        assert got == expected, (op, args)
        assert reader.position == reference.position
        assert reader.remaining == reference.remaining
        assert reader.exhausted == reference.exhausted


@settings(max_examples=100, deadline=None)
@given(fields=st.lists(write_bits_ops(), max_size=30))
def test_what_one_writes_the_other_reads(fields):
    """Cross the two implementations: new writer, reference reader."""
    fields = [(value, width) for _op, value, width in fields
              if 0 <= value < (1 << width)]
    writer = BitWriter()
    for value, width in fields:
        writer.write_bits(value, width)
    reader = ReferenceBitReader(writer.getvalue(), writer.bit_length)
    assert [reader.read_bits(width) for _value, width in fields] == [
        value for value, _width in fields]
    assert reader.exhausted
