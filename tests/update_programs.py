"""Random update programs over every update surface (a test helper).

A program is a list of steps ``(kind, a, b)``.  Each step picks its
nodes from the document as it stands when the step runs (``a`` and
``b`` index into the current element and attribute lists, modulo their
lengths), so any program applies to any document, every step is a
valid call, and equal documents replay a program identically.

:func:`run_step` issues one step through a *surface*: ``ldoc.updates``
(the per-operation surface), an open
:class:`~repro.updates.batch.UpdateBatch`, or an active
:class:`~repro.durability.transactions.Transaction`.  The transaction
surface journals only the element-targeted subset; the other kinds go
through ``ldoc.updates`` inside its scope.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.xmlmodel.parser import parse_fragment

#: A small document with attributes, text and uneven fan-out.
DOCUMENT_XML = (
    "<site region='eu'>"
    "<people><person id='p1'><name>Ann</name></person>"
    "<person id='p2'><name>Bob</name><city>Oslo</city></person></people>"
    "<items><item id='i1'>old<desc><b>bold</b></desc></item><item/></items>"
    "<closed/>"
    "</site>"
)

FRAGMENT_XML = "<graft g='1'><leaf>text</leaf><leaf/></graft>"

KINDS = (
    "insert-before", "insert-after", "append-child", "prepend-child",
    "insert-attribute", "insert-subtree", "delete", "move",
    "set-text", "rename", "set-attribute-value",
)

#: Steps that change which elements exist or where they stand.
STRUCTURAL_KINDS = ("insert-before", "insert-after", "append-child",
                    "prepend-child", "insert-subtree", "delete", "move")

_INDEX = st.integers(min_value=0, max_value=10**6)


def programs(kinds=KINDS, max_size: int = 8):
    """Hypothesis strategy for one program."""
    return st.lists(st.tuples(st.sampled_from(kinds), _INDEX, _INDEX),
                    min_size=1, max_size=max_size)


def _content_index(parent, b: int, moving=None) -> int:
    """A child index after ``parent``'s attributes (``moving`` excluded)."""
    content = [child for child in parent.children
               if not child.is_attribute and child is not moving]
    return len(parent.attributes()) + b % (len(content) + 1)


def run_step(ldoc, surface, step, serial: int = 0) -> None:
    """Apply one step through ``surface`` (see the module docstring)."""
    kind, a, b = step
    method = kind.replace("-", "_")
    call = getattr(surface, method, None) or getattr(ldoc.updates, method)
    elements = [node for node in ldoc.document.all_nodes() if node.is_element]
    inner = elements[1:]
    name = f"n{serial}"
    if kind in ("insert-before", "insert-after", "delete", "move"):
        if not inner:
            return
        node = inner[a % len(inner)]
        if kind == "delete":
            call(node)
        elif kind == "move":
            targets = [element for element in elements
                       if element is not node
                       and not node.is_ancestor_of(element)]
            parent = targets[b % len(targets)]
            call(node, parent, _content_index(parent, b // 7, moving=node))
        else:
            call(node, name)
        return
    if kind == "set-attribute-value":
        attributes = [node for node in ldoc.document.all_nodes()
                      if node.is_attribute]
        if attributes:
            call(attributes[a % len(attributes)], f"v{b % 100}")
        return
    element = elements[a % len(elements)]
    if kind in ("append-child", "prepend-child"):
        call(element, name)
    elif kind == "insert-attribute":
        call(element, f"at{serial}", f"v{b % 100}")
    elif kind == "insert-subtree":
        call(element, _content_index(element, b), parse_fragment(FRAGMENT_XML))
    elif kind == "set-text":
        call(element, f"t{b % 100}" if b % 4 else "")
    else:  # rename
        call(element, name)


def run_program(ldoc, surface, program, start: int = 0) -> None:
    """Apply every step of ``program`` through ``surface``, in order."""
    for serial, step in enumerate(program, start):
        run_step(ldoc, surface, step, serial)
