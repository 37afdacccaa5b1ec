"""Seeded synthetic XML document generation.

The paper evaluates schemes qualitatively over "various update scenarios";
the benchmarks need repeatable documents of controlled size and shape to
measure label growth, storage and update cost.  ``DocumentGenerator``
produces deterministic pseudo-random documents from a seed, with knobs for
fan-out, depth, attribute density and text density — standing in for the
real-world corpora (DBLP-like, deep-nested, wide-flat) that labelling-scheme
papers customarily use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xmlmodel.tree import Document, XMLNode

_TAG_POOL = [
    "book", "title", "author", "publisher", "editor", "name", "address",
    "edition", "chapter", "section", "paragraph", "item", "entry", "record",
]

_WORD_POOL = [
    "wayfarer", "destiny", "image", "fantasy", "matthew", "dickens",
    "usa", "ireland", "dublin", "xml", "update", "label", "scheme",
]


@dataclass
class GeneratorProfile:
    """Shape parameters for synthetic documents.

    ``max_children`` bounds element fan-out, ``max_depth`` bounds nesting,
    ``attribute_probability`` / ``text_probability`` control how many
    attribute and text nodes decorate each element.
    """

    max_children: int = 5
    max_depth: int = 6
    attribute_probability: float = 0.3
    text_probability: float = 0.5

    @classmethod
    def wide(cls) -> "GeneratorProfile":
        """Flat, wide documents (sibling-heavy, stresses local order)."""
        return cls(max_children=20, max_depth=2)

    @classmethod
    def deep(cls) -> "GeneratorProfile":
        """Narrow, deep documents (stresses level encoding and prefixes)."""
        return cls(max_children=2, max_depth=14)

    @classmethod
    def bibliography(cls) -> "GeneratorProfile":
        """DBLP-like: a broad root of uniform records."""
        return cls(max_children=8, max_depth=4, attribute_probability=0.5)


class DocumentGenerator:
    """Deterministic random document factory."""

    def __init__(self, seed: int = 0, profile: GeneratorProfile = None):
        self.seed = seed
        self.profile = profile or GeneratorProfile()

    def generate(self, target_nodes: int) -> Document:
        """Generate a document with roughly ``target_nodes`` labelled nodes.

        The generator stops opening new elements once the budget is spent,
        so the result has at least one and at most ``target_nodes + O(depth)``
        labelled nodes; exact size is not needed by any experiment, only
        repeatability.
        """
        rng = random.Random(self.seed)
        document = Document()
        root = document.new_element("root")
        document.set_root(root)
        budget = [max(0, target_nodes - 1)]
        self._grow(document, root, rng, depth=1, budget=budget)
        return document

    def _grow(
        self,
        document: Document,
        parent: XMLNode,
        rng: random.Random,
        depth: int,
        budget: list,
    ) -> None:
        profile = self.profile
        if budget[0] <= 0 or depth > profile.max_depth:
            return
        children = rng.randint(1, profile.max_children)
        for _ in range(children):
            if budget[0] <= 0:
                return
            element = document.new_element(rng.choice(_TAG_POOL))
            budget[0] -= 1
            if rng.random() < profile.attribute_probability and budget[0] > 0:
                element.append_child(
                    document.new_attribute(
                        rng.choice(("id", "year", "genre", "lang")),
                        self._word(rng),
                    )
                )
                budget[0] -= 1
            parent.append_child(element)
            if rng.random() < profile.text_probability:
                element.append_child(document.new_text(self._phrase(rng)))
            self._grow(document, element, rng, depth + 1, budget)

    def _word(self, rng: random.Random) -> str:
        return rng.choice(_WORD_POOL)

    def _phrase(self, rng: random.Random) -> str:
        return " ".join(rng.choice(_WORD_POOL) for _ in range(rng.randint(1, 4)))


def random_document(target_nodes: int, seed: int = 0,
                    profile: GeneratorProfile = None) -> Document:
    """Generate a seeded random document (module-level shortcut)."""
    return DocumentGenerator(seed=seed, profile=profile).generate(target_nodes)


def random_tag(rng: random.Random) -> str:
    """A random element name from the shared pool (for workloads)."""
    return rng.choice(_TAG_POOL)
