"""Cohen, Kaplan & Milo's bit-code prefix labels [4].

Section 3.1.2: "two prefix-based labelling schemes are proposed which
assign bit codes as the positional identifiers in node labels.  The first
approach has a label growth rate of one-bit such that the positional
identifier of the first child of node u is 0, of the second child is 10,
of the third child is 110 and of the nth child is (n-1) ones with a 0
concatenated at the end.  The second approach has a double-bit label
growth rate."

The survey excludes the scheme from Figure 7 because it "do[es] not
support the maintenance of document order under updates": appending a new
last child works (the next code in the pattern), but insertions before or
between siblings have no code available and force a relabel.  Implemented
as an extension for the storage-cost experiments (the quoted "significant
label sizes ... for even modest document sizes").
"""

from __future__ import annotations

from typing import List

from repro.core.properties import (
    Compliance,
    DocumentOrderApproach,
    EncodingRepresentation,
)
from repro.errors import OverflowEvent
from repro.schemes.base import (
    InsertOutcome,
    PrefixSchemeBase,
    SchemeFamily,
    SchemeMetadata,
    SiblingInsertContext,
)
from repro.schemes.storage import LengthFieldStorage


class CohenScheme(PrefixSchemeBase):
    """Unary-style bit codes; ``growth`` selects the 1- or 2-bit variant."""

    metadata = SchemeMetadata(
        name="cohen",
        display_name="Cohen bit-codes",
        reference="Cohen, Kaplan & Milo [4]",
        family=SchemeFamily.PREFIX,
        document_order=DocumentOrderApproach.LOCAL,
        encoding_representation=EncodingRepresentation.VARIABLE,
        declared_compactness=Compliance.NONE,
        extension=True,
        notes="no in-place middle insertion; excluded from Figure 7",
    )

    def __init__(self, growth: int = 1, length_field_bits: int = 16):
        super().__init__()
        if growth not in (1, 2):
            raise OverflowEvent("Cohen variant must have growth 1 or 2")
        self.growth = growth
        self.storage = LengthFieldStorage(
            length_field_bits=length_field_bits, unit_bits=1
        )

    def _code_for_position(self, position: int) -> str:
        """The n-th child's code: (n-1) one-groups then a zero-group."""
        return "1" * (self.growth * position) + "0" * self.growth

    def initial_child_components(self, count: int) -> List[str]:
        return [self._code_for_position(position) for position in range(count)]

    def component_after(self, last: str) -> str:
        # The next code in the pattern: one more leading 1-group.
        return "1" * self.growth + last

    def component_before(self, first: str) -> str:
        # No code exists before the first: signal the relabel.
        raise OverflowEvent("Cohen codes cannot insert before the first child")

    def component_between(self, left: str, right: str) -> str:
        raise OverflowEvent("Cohen codes cannot insert between siblings")

    def insert_sibling(self, context: SiblingInsertContext) -> InsertOutcome:
        outcome = super().insert_sibling(context)
        # PrefixSchemeBase converts the OverflowEvent into a relabel below
        # the parent; Cohen relabels are a structural property rather than
        # a storage overflow, so clear the flag for honest overflow
        # accounting.
        if outcome.relabeled:
            outcome.overflowed = False
        return outcome

    def compare_components(self, left: str, right: str) -> int:
        if left == right:
            return 0
        return -1 if left < right else 1

    def component_size_bits(self, component: str) -> int:
        return self.storage.stored_bits(len(component))

    def check_component(self, component: str) -> str:
        self.storage.check_length(len(component), context="Cohen code")
        return component
