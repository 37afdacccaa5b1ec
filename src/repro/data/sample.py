"""The paper's running example: the Figure 1(a) sample XML file.

Every figure in the paper is drawn over either this document (Figures 1-2)
or the abstract ten-node tree of Figures 3-6.  This module provides both,
together with the exact expected labels the figures show, so tests and
benchmarks can assert byte-level agreement with the paper.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.xmlmodel.builder import tree_from_shape
from repro.xmlmodel.parser import parse
from repro.xmlmodel.tree import Document

#: The Figure 1(a) sample XML file, verbatim (whitespace normalised).
SAMPLE_XML = """\
<book>
<title genre="Fantasy"> Wayfarer </title>
<author> Matthew Dickens </author>
<publisher>
<editor>
<name> Destiny Image </name>
<address> USA </address>
</editor>
<edition year="2004"> 1.0 </edition>
</publisher>
</book>
"""

#: Figure 1(b): (pre, post) labels, in document order of the ten labelled
#: nodes (book, title, @genre, author, publisher, editor, name, address,
#: edition, @year).
FIGURE_1B_PRE_POST: List[Tuple[int, int]] = [
    (0, 9),
    (1, 1),
    (2, 0),
    (3, 2),
    (4, 8),
    (5, 5),
    (6, 3),
    (7, 4),
    (8, 7),
    (9, 6),
]

#: Figure 2: the encoding table rows as
#: (pre, post, node type, parent pre or None, name, value).
FIGURE_2_ROWS: List[Tuple[int, int, str, object, str, str]] = [
    (0, 9, "Element", None, "book", ""),
    (1, 1, "Element", 0, "title", "Wayfarer"),
    (2, 0, "Attribute", 1, "genre", "Fantasy"),
    (3, 2, "Element", 0, "author", "Matthew Dickens"),
    (4, 8, "Element", 0, "publisher", ""),
    (5, 5, "Element", 4, "editor", ""),
    (6, 3, "Element", 5, "name", "Destiny Image"),
    (7, 4, "Element", 5, "address", "USA"),
    (8, 7, "Element", 4, "edition", "1.0"),
    (9, 6, "Attribute", 8, "year", "2004"),
]

#: The abstract pre-insertion tree shared by Figures 4 and 5: a root with
#: three children of fan-out 2, 1 and 2 respectively (nine nodes).
FIGURE_TREE_SHAPE = [[None, None], [None], [None, None]]

#: Figure 3 uses a slightly fuller tree: fan-outs (2, 1, 3) under the root.
FIGURE_3_SHAPE = [[None, None], [None], [None, None, None]]
FIGURE_3_DEWEY_LABELS = [
    "1",
    "1.1", "1.1.1", "1.1.2",
    "1.2", "1.2.1",
    "1.3", "1.3.1", "1.3.2", "1.3.3",
]

#: Figure 4: initial ORDPATH labels for the pre-insertion tree.
FIGURE_4_INITIAL_ORDPATH_LABELS = [
    "1",
    "1.1", "1.1.1", "1.1.3",
    "1.3", "1.3.1",
    "1.5", "1.5.1", "1.5.3",
]

#: Figure 4 inserted labels: (description, expected label).
FIGURE_4_INSERTED = {
    "before_first_under_1.1": "1.1.-1",
    "after_last_under_1.3": "1.3.3",
    "between_1.5.1_and_1.5.3": "1.5.2.1",
}

#: Figure 5: initial LSDX labels for the pre-insertion tree.
FIGURE_5_INITIAL_LSDX_LABELS = [
    "0a",
    "1a.b", "2ab.b", "2ab.c",
    "1a.c", "2ac.b",
    "1a.d", "2ad.b", "2ad.c",
]

#: Figure 5 inserted labels.
FIGURE_5_INSERTED = {
    "before_first_under_1a.b": "2ab.ab",
    "after_last_under_1a.c": "2ac.c",
    "between_2ad.b_and_2ad.c": "2ad.bb",
}

#: Figure 6 pre-insertion tree: root (empty label) with children 01 (leaf),
#: 0101 (one child) and 011 (two children) — fan-outs (0, 1, 2), unlike the
#: (2, 1, 2) shape shared by Figures 4-5.
FIGURE_6_SHAPE = [None, [None], [None, None]]

#: Figure 6: initial ImprovedBinary labels, in document order.
FIGURE_6_INITIAL_LABELS = [
    "",
    "01",
    "0101", "0101.01",
    "011", "011.01", "011.011",
]

#: Figure 6 inserted labels.  The two root-level grey nodes are the middle
#: labels between (01, 0101) and (0101, 011) respectively.
FIGURE_6_INSERTED = {
    "before_first_under_0101": "0101.001",
    "after_last_under_0101": "0101.011",
    "between_011.01_and_011.011": "011.0101",
    "between_root_children_01_and_0101": "01001",
    "between_root_children_0101_and_011": "01011",
}


def sample_document() -> Document:
    """Parse and return the Figure 1(a) sample document."""
    return parse(SAMPLE_XML)


def figure_tree() -> Document:
    """The shared pre-insertion abstract tree of Figures 4-6."""
    return tree_from_shape(FIGURE_TREE_SHAPE)


def figure3_tree() -> Document:
    """The Figure 3 tree (fan-outs 2, 1, 3 under the root)."""
    return tree_from_shape(FIGURE_3_SHAPE)
