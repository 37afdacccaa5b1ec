"""The bit-list ``BitWriter``/``BitReader``: the bit I/O test oracle.

These are the original one-list-element-per-bit classes that
:mod:`repro.labels.bitio` replaced with word-at-a-time ones.  They are
kept verbatim as the reference the differential tests compare the
replacements against: same bytes, bit lengths, values, positions and
errors for every operation sequence.
"""

from __future__ import annotations

from typing import List

from repro.errors import InvalidLabelError


class ReferenceBitWriter:
    """Accumulates bits MSB-first; pads the final byte with zeros."""

    def __init__(self):
        self._bits: List[int] = []

    def __len__(self) -> int:
        return len(self._bits)

    @property
    def bit_length(self) -> int:
        return len(self._bits)

    def write_bit(self, bit: int) -> None:
        self._bits.append(1 if bit else 0)

    def write_bits(self, value: int, width: int) -> None:
        """Write ``width`` bits of ``value``, most significant first."""
        if width < 0:
            raise InvalidLabelError("bit width must be non-negative")
        if value < 0 or value >= (1 << width):
            raise InvalidLabelError(
                f"value {value} does not fit in {width} bits"
            )
        for position in range(width - 1, -1, -1):
            self._bits.append((value >> position) & 1)

    def write_bitstring(self, bits: str) -> None:
        """Write a string of '0'/'1' characters verbatim."""
        for char in bits:
            if char not in "01":
                raise InvalidLabelError(f"not a bit: {char!r}")
            self._bits.append(int(char))

    def write_bytes(self, data: bytes) -> None:
        for byte in data:
            self.write_bits(byte, 8)

    def getvalue(self) -> bytes:
        out = bytearray()
        for start in range(0, len(self._bits), 8):
            chunk = self._bits[start : start + 8]
            chunk += [0] * (8 - len(chunk))
            byte = 0
            for bit in chunk:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


class ReferenceBitReader:
    """Replays bits MSB-first from bytes."""

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
        if self.exhausted:
            raise InvalidLabelError("bit stream exhausted")
        byte = self._data[self._position >> 3]
        bit = (byte >> (7 - (self._position & 7))) & 1
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_bitstring(self, width: int) -> str:
        return "".join(str(self.read_bit()) for _ in range(width))

    def read_bytes(self, count: int) -> bytes:
        return bytes(self.read_bits(8) for _ in range(count))

    def peek_bits(self, width: int) -> int:
        """Read ahead without consuming (used by prefix-code decoders)."""
        saved = self._position
        try:
            return self.read_bits(width)
        finally:
            self._position = saved
