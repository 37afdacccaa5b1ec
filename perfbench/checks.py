"""Output checks: document equality and ElementTree oracles.

Every check runs outside the timed loop.  A failed check is recorded as
a message on the run; any message makes the run's ``correct`` false.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from typing import Iterable, List, Sequence, Tuple

Fingerprint = Tuple[str, str, str]


def node_fingerprint(node) -> Fingerprint:
    """``(name, @id, value)`` of a program node; value is the attribute
    value or the element's direct text."""
    if node.is_attribute:
        return (node.name, "", node.value or "")
    id_attribute = node.attribute("id")
    return (node.name, id_attribute.value if id_attribute is not None else "",
            node.text_value())


def element_fingerprint(element: ET.Element) -> Fingerprint:
    """The same fingerprint for an ElementTree element."""
    return (element.tag, element.attrib.get("id", ""), element.text or "")


def document_signature(ldoc) -> List[tuple]:
    """Every labelled node in document order: kind, name, value, label."""
    return [
        (node.kind.name, node.name,
         node.value if node.is_attribute else node.text_value(),
         ldoc.labels[node.node_id])
        for node in ldoc.document.labeled_nodes()
    ]


def first_difference(expected: Sequence, actual: Sequence) -> str:
    """A short description of where two sequences first differ."""
    for position, (left, right) in enumerate(zip(expected, actual)):
        if left != right:
            return f"item {position}: expected {left!r}, got {right!r}"
    return f"lengths differ: expected {len(expected)}, got {len(actual)}"


def oracle_results(root: ET.Element, oracle: str,
                   after: str = "") -> List[Fingerprint]:
    """``findall`` of ``oracle`` under ``root``, fingerprinted.

    With ``after`` set, only the elements following the one whose
    ``@id`` equals it are kept (the ``following-sibling::`` answer).
    """
    found = root.findall(oracle)
    if after:
        ids = [element.attrib.get("id") for element in found]
        found = found[ids.index(after) + 1:]
    return [element_fingerprint(element) for element in found]


def point_query_values(root: ET.Element, name: str) -> List[str]:
    """What ``point_query(name)`` must return, as values in document order."""
    return [element.text or "" for element in root.iter(name)]


def digest(parts: Iterable[object]) -> str:
    """A short, stable hex digest of ``repr`` of each part."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]
