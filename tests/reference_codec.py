"""Label stream encode/decode as it was before the kernels: the codec oracle.

:func:`reference_encode` and :func:`reference_decode` are the original
``LabelStreamCodec.encode_labels``/``decode_labels`` loops over the
bit-list :mod:`reference_bitio` classes, one ``write_label`` or
``read_label`` per label.  QED and CDQS use the original per-label,
per-digit quaternary loop below in place of the whole-stream kernel.
Every other codec's own per-label methods are unchanged, so they serve
as their own reference once they run over the bit-list classes.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from reference_bitio import ReferenceBitReader, ReferenceBitWriter

from repro.encoding.codec import LabelStreamCodec, QuaternaryStreamCodec

_COUNT_BITS = 32
_QUATERNARY_SEPARATOR = 0


def write_quaternary_label(writer, label: Tuple[str, ...]) -> None:
    for code in label:
        for digit in code:
            writer.write_bits(int(digit), 2)
        writer.write_bits(_QUATERNARY_SEPARATOR, 2)
    writer.write_bits(_QUATERNARY_SEPARATOR, 2)


def read_quaternary_label(reader) -> Tuple[str, ...]:
    codes: List[str] = []
    digits: List[str] = []
    while True:
        unit = reader.read_bits(2)
        if unit == _QUATERNARY_SEPARATOR:
            if not digits:
                return tuple(codes)
            codes.append("".join(digits))
            digits = []
        else:
            digits.append(str(unit))


def reference_encode(codec: LabelStreamCodec,
                     labels: Sequence[Any]) -> Tuple[bytes, int]:
    """(bytes, payload bits) as the original encode loop produced them."""
    write = (write_quaternary_label
             if isinstance(codec, QuaternaryStreamCodec) else codec.write_label)
    writer = ReferenceBitWriter()
    writer.write_bits(len(labels), _COUNT_BITS)
    before = writer.bit_length
    for label in labels:
        write(writer, label)
    return writer.getvalue(), writer.bit_length - before


def reference_decode(codec: LabelStreamCodec, data: bytes) -> List[Any]:
    """The labels the original decode loop rebuilt from ``data``."""
    read = (read_quaternary_label
            if isinstance(codec, QuaternaryStreamCodec) else codec.read_label)
    reader = ReferenceBitReader(data)
    count = reader.read_bits(_COUNT_BITS)
    return [read(reader) for _ in range(count)]
