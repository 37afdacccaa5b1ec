"""Bit-exact label stream codecs: section 4's storage layouts, realised.

The survey's overflow argument is entirely about physical label storage:
fixed-width fields, variable codes with a fixed-width *length* field,
and self-delimiting codes (QED's reserved ``00`` two-bit separator, the
vector scheme's UTF-8 units).  This module implements each layout as a
real, decodable codec over label streams, so that

* the ``00`` separator mechanism is demonstrated in actual bits — QED
  labels concatenate into one stream and decode back without any length
  information, because no code ever contains the ``00`` unit;
* ORDPATH's "compressed binary representation" exists as a prefix-free
  bucket code whose group structure is recovered from component parity
  alone (no caret framing needed);
* the fixed-width layouts really do spend exactly the bits the schemes'
  ``label_size_bits`` models claim, which the round-trip tests assert.

Streams carry a small frame: a 32-bit label count, then the labels back
to back.  ``encode_labels`` returns the bytes and the exact payload bit
count so tests can compare against the size models.

Each codec also states one fact about its layout,
:attr:`LabelStreamCodec.bytes_sort_in_document_order`: whether one
label encoded on its own compares, byte by byte, in document order.
A node table stores labels that way, so for these codecs its
``ORDER BY label`` is document order.
"""

from __future__ import annotations

import abc
import struct
from typing import Any, Dict, List, Sequence, Tuple, Type

from repro.errors import InvalidLabelError
from repro.labels import varint
from repro.labels.bitio import BitReader, BitWriter
from repro.schemes.base import LabelingScheme
from repro.schemes.containment.prepost import PrePostLabel
from repro.schemes.containment.qrs import QRSLabel
from repro.schemes.containment.region import RegionLabel
from repro.schemes.containment.sector import SECTOR_WORD_BITS, SectorLabel
from repro.schemes.prefix import ordpath as ordpath_module

_COUNT_BITS = 32
_DEPTH_BITS = 8
#: ``struct`` codes for big-endian unsigned fields of 1, 2, 4 and 8 bytes.
_COMPONENT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

#: Each byte as its four 2-bit units, in base-4 digits, MSB first.
_BYTE_DIGITS = tuple(
    f"{byte >> 6}{byte >> 4 & 3}{byte >> 2 & 3}{byte & 3}"
    for byte in range(256)
)


class LabelStreamCodec(abc.ABC):
    """Encodes/decodes a sequence of one scheme's labels to raw bits."""

    #: Whether ``encode_labels([label])`` bytes compare in document
    #: order as unsigned bytes, a proper prefix first (how SQLite orders
    #: BLOBs).  True where the layout leads with the scheme's order key
    #: in a fixed-width big-endian field, or is a digit string whose
    #: digit order is the code order.  False where a depth or length
    #: field comes first, or the order is not lexicographic (vector).
    bytes_sort_in_document_order = False

    def __init__(self, scheme: LabelingScheme):
        self.scheme = scheme

    @abc.abstractmethod
    def write_label(self, writer: BitWriter, label: Any) -> None:
        """Append one label's bits (must be self-delimiting)."""

    @abc.abstractmethod
    def read_label(self, reader: BitReader) -> Any:
        """Consume and rebuild one label."""

    def write_labels(self, writer: BitWriter, labels: Sequence[Any]) -> None:
        """Append every label's bits (a layout may encode all at once)."""
        for label in labels:
            self.write_label(writer, label)

    def read_labels(self, reader: BitReader, count: int) -> List[Any]:
        """Consume and rebuild ``count`` labels."""
        return [self.read_label(reader) for _ in range(count)]

    # ------------------------------------------------------------------

    def encode_labels(self, labels: Sequence[Any]) -> Tuple[bytes, int]:
        """Encode a label sequence; returns (bytes, payload_bit_count)."""
        writer = BitWriter()
        writer.write_bits(len(labels), _COUNT_BITS)
        self.write_labels(writer, labels)
        return writer.getvalue(), writer.bit_length - _COUNT_BITS

    def decode_labels(self, data: bytes) -> List[Any]:
        """Invert :meth:`encode_labels`."""
        reader = BitReader(data)
        return self.read_labels(reader, reader.read_bits(_COUNT_BITS))


# ----------------------------------------------------------------------
# Self-delimiting layouts (overflow-free designs)
# ----------------------------------------------------------------------

class QuaternaryStreamCodec(LabelStreamCodec):
    """QED/CDQS labels: 2-bit digits, codes separated by the ``00`` unit.

    A label is its codes each followed by one separator, then one extra
    separator (an "empty code") closing the label.  Because valid codes
    never contain the digit 0, the decoder needs no length information —
    precisely the section 4 mechanism that defeats the overflow problem.

    The codec works on the whole stream as one base-4 digit string, one
    digit per 2-bit unit: ``int(digits, 4)`` packs it, and a
    byte-to-four-digits table and a split on the ``0`` separators unpack
    it.  A code must be a non-empty string of the digits 1-3; anything
    else could not be told apart from a separator, so it is refused.

    Codes order lexicographically over 1 < 2 < 3 and the separator 0
    sorts below every digit, so a label's digits compare in document
    order: an ancestor's closing ``00`` sorts before its descendants'
    next code.
    """

    bytes_sort_in_document_order = True

    def write_label(self, writer: BitWriter, label: Tuple[str, ...]) -> None:
        self.write_labels(writer, (label,))

    def read_label(self, reader: BitReader) -> Tuple[str, ...]:
        return self.read_labels(reader, 1)[0]

    def write_labels(self, writer: BitWriter,
                     labels: Sequence[Tuple[str, ...]]) -> None:
        if not all(map(all, labels)) or "".join(map("".join, labels)).strip(
            "123"
        ):
            raise InvalidLabelError(
                "a QED/CDQS code must be a non-empty string of the digits 1-3"
            )
        digits = "".join([
            "0".join(label) + "00" if label else "0" for label in labels
        ])
        writer.write_bits(int(digits or "0", 4), 2 * len(digits))

    def read_labels(self, reader: BitReader,
                    count: int) -> List[Tuple[str, ...]]:
        if not count:
            return []
        units = reader.remaining >> 1
        padding = -units & 3
        window = reader.peek_bits(2 * units) << 2 * padding
        digits = "".join(map(
            _BYTE_DIGITS.__getitem__,
            window.to_bytes((units + padding) >> 2, "big"),
        ))[:units]
        # Every token but the last ends at a separator; an empty token
        # closes a label.
        tokens = digits.split("0")[:-1]
        labels: List[Tuple[str, ...]] = []
        codes: List[str] = []
        for token in tokens:
            if token:
                codes.append(token)
                continue
            labels.append(tuple(codes))
            if len(labels) == count:
                break
            codes = []
        else:
            raise InvalidLabelError("bit stream exhausted")
        used = sum(map(len, labels)) + count
        reader.read_bits(2 * (used + sum(map(len, tokens[:used]))))
        return labels


class VectorStreamCodec(LabelStreamCodec):
    """Vector labels: four UTF-8-style varints (begin x,y; end x,y)."""

    def write_label(self, writer: BitWriter, label) -> None:
        (bx, by), (ex, ey) = label
        for value in (bx, by, ex, ey):
            writer.write_bytes(varint.encode(value))

    def read_label(self, reader: BitReader):
        values = []
        for _ in range(4):
            lead = bytes([reader.peek_bits(8)])
            size = self._unit_size(lead[0], reader)
            data = reader.read_bytes(size)
            value, _consumed = varint.decode(data)
            values.append(value)
        return ((values[0], values[1]), (values[2], values[3]))

    def _unit_size(self, lead: int, reader: BitReader) -> int:
        if lead < 0x80:
            return 1
        if lead >> 5 == 0b110:
            return 2
        if lead >> 4 == 0b1110:
            return 3
        if lead >> 3 == 0b11110:
            return 4
        if lead >> 3 == 0b11111:
            return 1 + 4 * (lead & 0x07)
        raise InvalidLabelError(f"bad varint lead byte {lead:#x}")


class DDEStreamCodec(LabelStreamCodec):
    """DDE labels: component count, then (p, q) varint pairs."""

    def write_label(self, writer: BitWriter, label) -> None:
        writer.write_bits(len(label), _DEPTH_BITS)
        for p, q in label:
            writer.write_bytes(varint.encode(p))
            writer.write_bytes(varint.encode(q))

    def read_label(self, reader: BitReader):
        depth = reader.read_bits(_DEPTH_BITS)
        vector_codec = VectorStreamCodec(self.scheme)
        components = []
        for _ in range(depth):
            values = []
            for _ in range(2):
                lead = reader.peek_bits(8)
                size = vector_codec._unit_size(lead, reader)
                value, _ = varint.decode(reader.read_bytes(size))
                values.append(value)
            components.append((values[0], values[1]))
        return tuple(components)


class OrdpathStreamCodec(LabelStreamCodec):
    """ORDPATH labels: the compressed binary representation.

    Each integer is written as its prefix-free bucket marker, a sign
    bit, and the magnitude payload.  A leading 8-bit component count
    delimits the label; the caret *group* structure is rebuilt from
    parity (a group ends at its first odd component), so carets need no
    framing of their own.
    """

    def write_label(self, writer: BitWriter, label) -> None:
        flat = [value for group in label for value in group]
        writer.write_bits(len(flat), _DEPTH_BITS)
        for value in flat:
            bucket = ordpath_module.bucket_of(value)
            writer.write_bitstring(ordpath_module.BUCKET_PREFIXES[bucket])
            writer.write_bit(1 if value < 0 else 0)
            writer.write_bits(
                abs(value), ordpath_module.bucket_payload_bits(bucket)
            )

    def read_label(self, reader: BitReader):
        count = reader.read_bits(_DEPTH_BITS)
        values: List[int] = []
        for _ in range(count):
            bucket = self._read_bucket(reader)
            negative = reader.read_bit()
            magnitude = reader.read_bits(
                ordpath_module.bucket_payload_bits(bucket)
            )
            values.append(-magnitude if negative else magnitude)
        return ordpath_module.parse_label(
            ".".join(str(value) for value in values)
        ) if values else ()

    def _read_bucket(self, reader: BitReader) -> int:
        if reader.read_bits(2) != 0:
            raise InvalidLabelError("bad ORDPATH bucket marker")
        index = 0
        while reader.read_bit():
            index += 1
            if index >= len(ordpath_module.BUCKET_PREFIXES):
                raise InvalidLabelError("bad ORDPATH bucket marker")
        return index


# ----------------------------------------------------------------------
# Length-field layouts (the overflow-prone variable designs)
# ----------------------------------------------------------------------

class StringPathCodec(LabelStreamCodec):
    """Prefix labels whose components are strings over a tiny alphabet.

    Used for ImprovedBinary/CDBS (bits) and LSDX/Com-D (letters): an
    8-bit depth, then per component a fixed-width *length field* and the
    symbols.  The length field is exactly the overflow surface section 4
    describes.
    """

    alphabet_bits: int
    symbols: str

    def __init__(self, scheme: LabelingScheme):
        super().__init__(scheme)
        self.length_field_bits = scheme.storage.length_field_bits

    def write_label(self, writer: BitWriter, label: Tuple[str, ...]) -> None:
        writer.write_bits(len(label), _DEPTH_BITS)
        for code in label:
            writer.write_bits(len(code), self.length_field_bits)
            for symbol in code:
                writer.write_bits(self.symbols.index(symbol), self.alphabet_bits)

    def read_label(self, reader: BitReader) -> Tuple[str, ...]:
        depth = reader.read_bits(_DEPTH_BITS)
        codes = []
        for _ in range(depth):
            length = reader.read_bits(self.length_field_bits)
            codes.append(
                "".join(
                    self.symbols[reader.read_bits(self.alphabet_bits)]
                    for _ in range(length)
                )
            )
        return tuple(codes)


class BinaryPathCodec(StringPathCodec):
    alphabet_bits = 1
    symbols = "01"


class LetterPathCodec(StringPathCodec):
    alphabet_bits = 6
    symbols = "abcdefghijklmnopqrstuvwxyz"


class DeweyStreamCodec(LabelStreamCodec):
    """DeweyID labels: depth, then fixed-width integer components."""

    def __init__(self, scheme: LabelingScheme):
        super().__init__(scheme)
        self.component_bits = scheme.component_bits

    def write_label(self, writer: BitWriter, label: Tuple[int, ...]) -> None:
        writer.write_bits(len(label), _DEPTH_BITS)
        for component in label:
            writer.write_bits(component, self.component_bits)

    def read_label(self, reader: BitReader) -> Tuple[int, ...]:
        depth = reader.read_bits(_DEPTH_BITS)
        return tuple(
            reader.read_bits(self.component_bits) for _ in range(depth)
        )

    def read_labels(self, reader: BitReader,
                    count: int) -> List[Tuple[int, ...]]:
        """Whole-byte fields are read from the bytes, not bit by bit.

        When the components are a whole number of bytes wide and the
        reader is on a byte boundary, every field is byte-aligned: an
        8-bit depth, then whole-byte big-endian components.  Other
        widths read one field at a time.
        """
        width, spare = divmod(self.component_bits, 8)
        window = None if spare else reader.aligned_bytes()
        if window is None:
            return super().read_labels(reader, count)
        unpack = _COMPONENT_FORMATS.get(width)
        size = len(window)
        labels: List[Tuple[int, ...]] = []
        offset = 0
        for _ in range(count):
            if offset >= size:
                # Past the end: raises, leaving the reader at its end.
                reader.skip_bits(8 * offset + _DEPTH_BITS)
            depth = window[offset]
            start = offset + 1
            offset = start + depth * width
            if offset > size:
                reader.skip_bits(8 * offset)  # past the end: raises
            if unpack is not None:
                labels.append(struct.unpack_from(
                    f">{depth}{unpack}", window, start))
            else:
                labels.append(tuple([
                    int.from_bytes(window[at : at + width], "big")
                    for at in range(start, offset, width)
                ]))
        reader.skip_bits(8 * offset)
        return labels


class DLNStreamCodec(LabelStreamCodec):
    """DLN labels: depth, per component a sub-level count and sub-values."""

    _SUBCOUNT_BITS = 4

    def __init__(self, scheme: LabelingScheme):
        super().__init__(scheme)
        self.subvalue_bits = scheme.storage.width_bits

    def write_label(self, writer: BitWriter, label) -> None:
        writer.write_bits(len(label), _DEPTH_BITS)
        for component in label:
            writer.write_bits(len(component), self._SUBCOUNT_BITS)
            for value in component:
                writer.write_bit(1 if value < 0 else 0)
                writer.write_bits(abs(value), self.subvalue_bits)

    def read_label(self, reader: BitReader):
        depth = reader.read_bits(_DEPTH_BITS)
        components = []
        for _ in range(depth):
            subcount = reader.read_bits(self._SUBCOUNT_BITS)
            values = []
            for _ in range(subcount):
                negative = reader.read_bit()
                magnitude = reader.read_bits(self.subvalue_bits)
                values.append(-magnitude if negative else magnitude)
            components.append(tuple(values))
        return tuple(components)


# ----------------------------------------------------------------------
# Fixed-width layouts (containment family)
# ----------------------------------------------------------------------

class PrePostStreamCodec(LabelStreamCodec):
    """Fixed-width pre, post, level; pre is document order."""

    bytes_sort_in_document_order = True

    def __init__(self, scheme: LabelingScheme):
        super().__init__(scheme)
        self.width = scheme.storage.width_bits

    def write_label(self, writer: BitWriter, label: PrePostLabel) -> None:
        writer.write_bits(label.pre, self.width)
        writer.write_bits(label.post, self.width)
        writer.write_bits(label.level, self.width)

    def read_label(self, reader: BitReader) -> PrePostLabel:
        return PrePostLabel(
            reader.read_bits(self.width),
            reader.read_bits(self.width),
            reader.read_bits(self.width),
        )


class RegionStreamCodec(LabelStreamCodec):
    """Fixed-width begin, end, level; begin is document order."""

    bytes_sort_in_document_order = True

    def __init__(self, scheme: LabelingScheme):
        super().__init__(scheme)
        self.width = scheme.storage.width_bits

    def write_label(self, writer: BitWriter, label: RegionLabel) -> None:
        writer.write_bits(label.begin, self.width)
        writer.write_bits(label.end, self.width)
        writer.write_bits(label.level, self.width)

    def read_label(self, reader: BitReader) -> RegionLabel:
        return RegionLabel(
            reader.read_bits(self.width),
            reader.read_bits(self.width),
            reader.read_bits(self.width),
        )


class SectorStreamCodec(LabelStreamCodec):
    """Fixed-width start, span; start is document order."""

    bytes_sort_in_document_order = True
    _WIDTH = SECTOR_WORD_BITS

    def write_label(self, writer: BitWriter, label: SectorLabel) -> None:
        writer.write_bits(label.start, self._WIDTH)
        writer.write_bits(label.span, self._WIDTH)

    def read_label(self, reader: BitReader) -> SectorLabel:
        return SectorLabel(
            reader.read_bits(self._WIDTH), reader.read_bits(self._WIDTH)
        )


class QRSStreamCodec(LabelStreamCodec):
    """Big-endian IEEE doubles begin, end; begin is document order.

    Begins are non-negative, and non-negative doubles order as their
    big-endian bytes do.
    """

    bytes_sort_in_document_order = True

    def write_label(self, writer: BitWriter, label: QRSLabel) -> None:
        for value in (label.begin, label.end):
            writer.write_bytes(struct.pack(">d", value))

    def read_label(self, reader: BitReader) -> QRSLabel:
        begin = struct.unpack(">d", reader.read_bytes(8))[0]
        end = struct.unpack(">d", reader.read_bytes(8))[0]
        return QRSLabel(begin, end)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_CODECS: Dict[str, Type[LabelStreamCodec]] = {
    "prepost": PrePostStreamCodec,
    "xrel": RegionStreamCodec,
    "sector": SectorStreamCodec,
    "qrs": QRSStreamCodec,
    "dewey": DeweyStreamCodec,
    "ordpath": OrdpathStreamCodec,
    "dln": DLNStreamCodec,
    "lsdx": LetterPathCodec,
    "comd": LetterPathCodec,
    "improved-binary": BinaryPathCodec,
    "cdbs": BinaryPathCodec,
    "cohen": BinaryPathCodec,
    "qed": QuaternaryStreamCodec,
    "cdqs": QuaternaryStreamCodec,
    "vector": VectorStreamCodec,
    "dde": DDEStreamCodec,
}


def codec_for(scheme: LabelingScheme) -> LabelStreamCodec:
    """The stream codec matching a scheme's storage model."""
    try:
        codec_class = _CODECS[scheme.metadata.name]
    except KeyError:
        raise InvalidLabelError(
            f"no label stream codec for scheme {scheme.metadata.name!r}"
        ) from None
    return codec_class(scheme)


def supported_codec_schemes() -> List[str]:
    """Scheme names with a stream codec (all but the prime extension)."""
    return sorted(_CODECS)
