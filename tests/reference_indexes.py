"""``DocumentIndexes`` as it was before it filtered the document's index.

:func:`reference_indexes` is the original rebuild: one walk over
``labeled_nodes()`` that groups every labelled node by name and by its
stripped text or attribute value, in document order.  The walk ran
again after any update.  It is the oracle for ``by_name``/``by_value``
(and so ``find``, ``find_value`` and ``descendant_path``), which now
filter the document order the axis accelerator keeps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

Entry = Tuple[Any, Any]


def reference_indexes(ldoc) -> Tuple[Dict[str, List[Entry]],
                                     Dict[str, List[Entry]]]:
    """``(by_name, by_value)`` rebuilt from a whole-document walk."""
    by_name: Dict[str, List[Entry]] = {}
    by_value: Dict[str, List[Entry]] = {}
    for node in ldoc.document.labeled_nodes():
        entry = (ldoc.label_of(node), node)
        by_name.setdefault(node.name, []).append(entry)
        value = (
            node.value if node.is_attribute else node.text_value().strip()
        )
        if value:
            by_value.setdefault(value, []).append(entry)
    return by_name, by_value
