"""Storage models: how labels are laid out in bits, and when they overflow.

Section 4 of the paper distinguishes three storage situations:

* **fixed-length** labels overflow "once all the assigned bits have been
  consumed by the update process";
* **variable-length** labels that store their size in a fixed-width field
  overflow when a code outgrows the field — the survey's titular
  "overflow problem";
* **self-delimiting** labels (QED's reserved ``00`` separator, Vector's
  UTF-8 units) carry no size field and never overflow.

Every scheme owns a storage model; the model answers size queries for the
compactness experiments and raises :class:`~repro.errors.OverflowEvent`
when an update would exceed its capacity, which the scheme converts into a
(counted) relabel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OverflowEvent


@dataclass(frozen=True)
class FixedWidthStorage:
    """A fixed number of bits per stored value.

    Signed values get one sign bit.  ``check`` raises on any value that
    does not fit — fixed-length schemes (containment integers, DLN
    components, CDBS codes) funnel every produced value through it.
    """

    width_bits: int = 32
    signed: bool = False

    @property
    def overflow_free(self) -> bool:
        return False

    def capacity(self) -> int:
        payload = self.width_bits - (1 if self.signed else 0)
        return (1 << payload) - 1

    def check(self, value: int, context: str = "value") -> int:
        magnitude = abs(value) if self.signed else value
        if magnitude > self.capacity() or (value < 0 and not self.signed):
            raise OverflowEvent(
                f"{context} {value} exceeds {self.width_bits}-bit fixed storage"
            )
        return value

    def value_bits(self, value: int) -> int:
        return self.width_bits


@dataclass(frozen=True)
class LengthFieldStorage:
    """Variable-length codes prefixed by a fixed-width length field.

    ``length_field_bits`` bounds the code length in units (bits for binary
    codes, components for path labels).  This is the configuration that
    makes ORDPATH, DeweyID, LSDX and ImprovedBinary "cannot completely
    avoid relabeling" (sections 3.1.2 and 4): the overflow probe shrinks
    the field and drives updates until ``check_length`` raises.
    """

    length_field_bits: int = 16
    unit_bits: int = 1

    @property
    def overflow_free(self) -> bool:
        return False

    def max_units(self) -> int:
        return (1 << self.length_field_bits) - 1

    def check_length(self, units: int, context: str = "code") -> int:
        if units > self.max_units():
            raise OverflowEvent(
                f"{context} of {units} units exceeds the "
                f"{self.length_field_bits}-bit length field "
                f"(max {self.max_units()})"
            )
        return units

    def stored_bits(self, units: int) -> int:
        """Length field plus payload."""
        return self.length_field_bits + units * self.unit_bits


@dataclass(frozen=True)
class SeparatorStorage:
    """Self-delimiting codes: a reserved separator instead of a size field.

    QED/CDQS reserve the two-bit ``00`` unit; the vector scheme's UTF-8
    units are self-delimiting by their lead bytes.  No capacity limit, so
    ``overflow_free`` is True — the heart of the QED contribution.
    """

    separator_bits: int = 2

    @property
    def overflow_free(self) -> bool:
        return True

    def stored_bits(self, payload_bits: int) -> int:
        """Payload plus one trailing separator."""
        return payload_bits + self.separator_bits
