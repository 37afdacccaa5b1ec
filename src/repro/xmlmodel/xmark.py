"""An XMark-style auction-site document generator.

Labelling-scheme papers customarily evaluate on the XMark benchmark's
auction-site documents; having no external data here (see DESIGN.md's
substitution notes), this module generates a deterministic document with
XMark's shape: a ``site`` with regions full of items, registered people,
and open/closed auctions — plus the matching *update stream*, because
auctions are the textbook case for dynamic labelling: every bid is an
append into one auction's history while the rest of the document stands
still.

``scale=1.0`` yields roughly 600 labelled nodes; sizes grow linearly
with the scale factor.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.updates.document import LabeledDocument
from repro.updates.workloads import WorkloadResult, run_insert_thunks
from repro.xmlmodel.tree import Document, XMLNode

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
_CATEGORIES = ("art", "books", "coins", "stamps", "tools", "travel")
_FIRST = ("Ada", "Alan", "Edgar", "Grace", "Jim", "Leslie", "Niklaus")
_LAST = ("Codd", "Gray", "Hopper", "Kay", "Lovelace", "Turing", "Wirth")
_WORDS = (
    "vintage", "rare", "boxed", "mint", "signed", "limited", "original",
    "restored", "antique", "classic",
)


class XMarkGenerator:
    """Deterministic auction-site documents plus their update stream."""

    def __init__(self, scale: float = 1.0, seed: int = 0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed

    # -- sizing ----------------------------------------------------------

    @property
    def items_per_region(self) -> int:
        return max(2, int(10 * self.scale))

    @property
    def people(self) -> int:
        return max(3, int(25 * self.scale))

    @property
    def open_auctions(self) -> int:
        return max(2, int(12 * self.scale))

    @property
    def closed_auctions(self) -> int:
        return max(1, int(6 * self.scale))

    # -- generation --------------------------------------------------------

    def generate(self) -> Document:
        rng = random.Random(self.seed)
        document = Document()
        site = document.new_element("site")
        document.set_root(site)
        self._regions(document, site, rng)
        self._categories(document, site)
        self._people(document, site, rng)
        self._auctions(document, site, rng)
        return document

    def _regions(self, document: Document, site: XMLNode,
                 rng: random.Random) -> None:
        regions = document.new_element("regions")
        site.append_child(regions)
        for region_name in _REGIONS:
            region = document.new_element(region_name)
            regions.append_child(region)
            for number in range(self.items_per_region):
                item = document.new_element("item")
                item.append_child(
                    document.new_attribute("id", f"item_{region_name}_{number}")
                )
                region.append_child(item)
                name = document.new_element("name")
                name.append_child(document.new_text(self._phrase(rng, 2)))
                item.append_child(name)
                description = document.new_element("description")
                item.append_child(description)
                parlist = document.new_element("parlist")
                description.append_child(parlist)
                for _ in range(rng.randint(1, 3)):
                    listitem = document.new_element("listitem")
                    listitem.append_child(
                        document.new_text(self._phrase(rng, 4))
                    )
                    parlist.append_child(listitem)

    def _categories(self, document: Document, site: XMLNode) -> None:
        categories = document.new_element("categories")
        site.append_child(categories)
        for label in _CATEGORIES:
            category = document.new_element("category")
            category.append_child(document.new_attribute("id", label))
            name = document.new_element("name")
            name.append_child(document.new_text(label))
            category.append_child(name)
            categories.append_child(category)

    def _people(self, document: Document, site: XMLNode,
                rng: random.Random) -> None:
        people = document.new_element("people")
        site.append_child(people)
        for number in range(self.people):
            person = document.new_element("person")
            person.append_child(
                document.new_attribute("id", f"person{number}")
            )
            people.append_child(person)
            name = document.new_element("name")
            name.append_child(document.new_text(
                f"{rng.choice(_FIRST)} {rng.choice(_LAST)}"
            ))
            person.append_child(name)
            email = document.new_element("emailaddress")
            email.append_child(document.new_text(f"person{number}@example.org"))
            person.append_child(email)

    def _auctions(self, document: Document, site: XMLNode,
                  rng: random.Random) -> None:
        open_auctions = document.new_element("open_auctions")
        site.append_child(open_auctions)
        for number in range(self.open_auctions):
            auction = document.new_element("open_auction")
            auction.append_child(
                document.new_attribute("id", f"open_auction{number}")
            )
            open_auctions.append_child(auction)
            initial = document.new_element("initial")
            initial.append_child(
                document.new_text(f"{rng.randint(1, 200)}.00")
            )
            auction.append_child(initial)
            # A couple of seed bids so the bidding stream has neighbours.
            for _ in range(rng.randint(0, 2)):
                self._append_bid(document, auction, rng)
        closed = document.new_element("closed_auctions")
        site.append_child(closed)
        for number in range(self.closed_auctions):
            auction = document.new_element("closed_auction")
            auction.append_child(
                document.new_attribute("id", f"closed_auction{number}")
            )
            price = document.new_element("price")
            price.append_child(document.new_text(f"{rng.randint(5, 500)}.00"))
            auction.append_child(price)
            closed.append_child(auction)

    def _append_bid(self, document: Document, auction: XMLNode,
                    rng: random.Random) -> XMLNode:
        bidder = document.new_element("bidder")
        auction.append_child(bidder)
        increase = document.new_element("increase")
        increase.append_child(document.new_text(f"{rng.randint(1, 50)}.00"))
        bidder.append_child(increase)
        return bidder

    def _phrase(self, rng: random.Random, words: int) -> str:
        return " ".join(rng.choice(_WORDS) for _ in range(words))


def xmark_document(scale: float = 1.0, seed: int = 0) -> Document:
    """Generate one auction-site document (module-level shortcut)."""
    return XMarkGenerator(scale=scale, seed=seed).generate()


def bidding_stream(ldoc: LabeledDocument, bids: int,
                   seed: int = 0,
                   hot_auction: Optional[int] = None) -> WorkloadResult:
    """The XMark-flavoured update stream: bids land inside auctions.

    Each step appends a ``bidder`` element into an open auction — a
    random one, or always the same ``hot_auction`` index for the skewed
    variant.  This is the realistic shape of the paper's "frequent
    updates" scenarios: localized structural growth inside a large,
    otherwise static document.
    """
    rng = random.Random(seed)
    site = ldoc.document.root
    open_auctions = next(
        child for child in site.element_children()
        if child.name == "open_auctions"
    )
    auctions: List[XMLNode] = open_auctions.element_children()
    if not auctions:
        raise ValueError("the document has no open auctions")

    def inserts():
        for _ in range(bids):
            def one_bid():
                if hot_auction is not None:
                    auction = auctions[hot_auction % len(auctions)]
                else:
                    auction = rng.choice(auctions)
                bidder = ldoc.updates.append_child(auction, "bidder").node
                increase = ldoc.updates.append_child(bidder, "increase").node
                ldoc.updates.set_text(increase, f"{rng.randint(1, 50)}.00")
                return bidder

            yield one_bid

    return run_insert_thunks(ldoc, inserts())
