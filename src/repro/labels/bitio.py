"""Bit-granular readers and writers for the label stream codecs.

Section 4's storage argument is about *bits*: fixed fields, length
fields, reserved separator units.  The codecs in
:mod:`repro.encoding.codec` make those layouts real, and they need a
bit-level I/O layer: ``BitWriter`` packs most-significant-bit-first into
bytes, ``BitReader`` replays them, and both track the exact bit count so
tests can assert the codecs match each scheme's declared
``label_size_bits`` model bit for bit.

Both work a machine word at a time rather than a bit at a time: the
writer shifts each field into a small integer accumulator and moves its
whole bytes to a ``bytearray`` once it holds a word, and the reader
decodes each field from the byte window that covers it with
``int.from_bytes``.  The accumulator stays bounded on purpose — one
ever-growing integer would copy itself on every shift.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import InvalidLabelError

#: The writer moves whole bytes out once its accumulator holds this many.
_FLUSH_BITS = 64

_NOT_A_BIT = re.compile("[^01]")


class BitWriter:
    """Accumulates bits MSB-first; pads the final byte with zeros."""

    def __init__(self):
        self._buffer = bytearray()
        self._accumulator = 0
        self._pending = 0  # bits held in the accumulator

    def __len__(self) -> int:
        return self.bit_length

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buffer) + self._pending

    def write_bit(self, bit: int) -> None:
        self._accumulator = (self._accumulator << 1) | (1 if bit else 0)
        self._pending += 1
        if self._pending >= _FLUSH_BITS:
            self._flush()

    def write_bits(self, value: int, width: int) -> None:
        """Write ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise InvalidLabelError("bit width must be non-negative")
        if value < 0 or value >> width:
            raise InvalidLabelError(
                f"value {value} does not fit in {width} bits"
            )
        self._accumulator = (self._accumulator << width) | value
        self._pending += width
        if self._pending >= _FLUSH_BITS:
            self._flush()

    def write_bitstring(self, bits: str) -> None:
        """Write a string of '0'/'1' characters verbatim.

        A bad character is refused after the bits before it are written,
        as a writer consuming one character at a time would.
        """
        bad = _NOT_A_BIT.search(bits)
        valid = bits if bad is None else bits[: bad.start()]
        if valid:
            self.write_bits(int(valid, 2), len(valid))
        if bad is not None:
            raise InvalidLabelError(f"not a bit: {bad.group()!r}")

    def write_bytes(self, data: bytes) -> None:
        self.write_bits(int.from_bytes(data, "big"), 8 * len(data))

    def _flush(self) -> None:
        """Move the accumulator's whole bytes to the buffer."""
        spare = self._pending & 7
        self._buffer += (self._accumulator >> spare).to_bytes(
            self._pending >> 3, "big"
        )
        self._accumulator &= (1 << spare) - 1
        self._pending = spare

    def getvalue(self) -> bytes:
        padding = -self._pending & 7
        tail = (self._accumulator << padding).to_bytes(
            (self._pending + padding) >> 3, "big"
        )
        return bytes(self._buffer) + tail


class BitReader:
    """Replays bits MSB-first from bytes.

    A read that runs past the end consumes what is left, then raises
    :class:`~repro.errors.InvalidLabelError`.
    """

    def __init__(self, data: bytes, bit_length: int = None):
        self._data = data
        self._position = 0
        self._limit = len(data) * 8 if bit_length is None else bit_length
        if self._limit > len(data) * 8:
            raise InvalidLabelError("bit_length exceeds the data")

    @property
    def position(self) -> int:
        return self._position

    @property
    def remaining(self) -> int:
        return self._limit - self._position

    @property
    def exhausted(self) -> bool:
        return self._position >= self._limit

    def read_bit(self) -> int:
        position = self._position
        if position >= self._limit:
            raise InvalidLabelError("bit stream exhausted")
        self._position = position + 1
        return (self._data[position >> 3] >> (7 - (position & 7))) & 1

    def read_bits(self, width: int) -> int:
        if width <= 0:
            return 0
        start = self._position
        end = start + width
        if end > self._limit:
            self._position = self._limit
            raise InvalidLabelError("bit stream exhausted")
        last = (end + 7) >> 3
        window = int.from_bytes(self._data[start >> 3 : last], "big")
        self._position = end
        return (window >> ((last << 3) - end)) & ((1 << width) - 1)

    def read_bitstring(self, width: int) -> str:
        if width <= 0:
            return ""
        return format(self.read_bits(width), f"0{width}b")

    def read_bytes(self, count: int) -> bytes:
        if count <= 0:
            return b""
        return self.read_bits(8 * count).to_bytes(count, "big")

    def aligned_bytes(self) -> Optional[memoryview]:
        """The unread whole bytes, or ``None`` off a byte boundary.

        For decoders whose fields are whole bytes: they parse the view
        and then move past what they used with :meth:`skip_bits`.
        """
        if self._position & 7:
            return None
        return memoryview(self._data)[self._position >> 3 : self._limit >> 3]

    def skip_bits(self, width: int) -> None:
        """Consume ``width`` bits unread; past the end as :meth:`read_bits`."""
        end = self._position + max(width, 0)
        if end > self._limit:
            self._position = self._limit
            raise InvalidLabelError("bit stream exhausted")
        self._position = end

    def peek_bits(self, width: int) -> int:
        """Read ahead without consuming (used by prefix-code decoders)."""
        saved = self._position
        try:
            return self.read_bits(width)
        finally:
            self._position = saved
