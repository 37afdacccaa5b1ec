"""Seeded inputs for the benchmark: XMark text, request streams, programs.

Everything a workload sends to the program is generated here from the
``--seed`` argument, and the program only ever receives XML text,
update-language source and element handles it returned itself.

The document generator writes XMark-shaped auction-site text directly.
It draws from its random stream in the same order as
``repro.xmlmodel.xmark.XMarkGenerator``, so ``xmark_text(scale, seed).xml``
is the text that ``serialize(xmark_document(scale, seed))`` produces,
but it does not call the program: the benchmark's inputs stay fixed
when the program under test changes.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
CATEGORIES = ("art", "books", "coins", "stamps", "tools", "travel")
FIRST = ("Ada", "Alan", "Edgar", "Grace", "Jim", "Leslie", "Niklaus")
LAST = ("Codd", "Gray", "Hopper", "Kay", "Lovelace", "Turing", "Wirth")
WORDS = (
    "vintage", "rare", "boxed", "mint", "signed", "limited", "original",
    "restored", "antique", "classic",
)


def derive_seed(seed: int, purpose: str) -> int:
    """A stable 64-bit seed for one named random stream of a run."""
    digest = hashlib.sha256(f"{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class XMarkText:
    """One generated document and what the generator knows about it."""

    xml: str
    scale: float
    seed: int
    #: (person id, person name) in document order.
    people: List[Tuple[str, str]] = field(default_factory=list)
    #: (region, item id) in document order.
    items: List[Tuple[str, str]] = field(default_factory=list)
    #: open auction id -> number of bidders, in document order.
    bidders: Dict[str, int] = field(default_factory=dict)
    #: element and attribute nodes, the nodes a labelling scheme labels.
    labelled_nodes: int = 0


def _phrase(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(words))


def xmark_text(scale: float, seed: int) -> XMarkText:
    """Auction-site XML text with XMark's shape; ~600 nodes per unit scale."""
    rng = random.Random(seed)
    items_per_region = max(2, int(10 * scale))
    doc = XMarkText(xml="", scale=scale, seed=seed)
    out = ["<site><regions>"]
    elements = 2  # site, regions
    attributes = 0
    for region in REGIONS:
        out.append(f"<{region}>")
        elements += 1
        for number in range(items_per_region):
            item_id = f"item_{region}_{number}"
            doc.items.append((region, item_id))
            out.append(f'<item id="{item_id}"><name>{_phrase(rng, 2)}</name>'
                       f"<description><parlist>")
            listitems = rng.randint(1, 3)
            for _ in range(listitems):
                out.append(f"<listitem>{_phrase(rng, 4)}</listitem>")
            out.append("</parlist></description></item>")
            elements += 4 + listitems
            attributes += 1
        out.append(f"</{region}>")
    out.append("</regions><categories>")
    for label in CATEGORIES:
        out.append(f'<category id="{label}"><name>{label}</name></category>')
    elements += 1 + 2 * len(CATEGORIES)
    attributes += len(CATEGORIES)
    out.append("</categories><people>")
    people = max(3, int(25 * scale))
    for number in range(people):
        person_id = f"person{number}"
        name = f"{rng.choice(FIRST)} {rng.choice(LAST)}"
        doc.people.append((person_id, name))
        out.append(f'<person id="{person_id}"><name>{name}</name>'
                   f"<emailaddress>{person_id}@example.org</emailaddress>"
                   f"</person>")
    elements += 1 + 3 * people
    attributes += people
    out.append("</people><open_auctions>")
    open_auctions = max(2, int(12 * scale))
    elements += 1
    for number in range(open_auctions):
        auction_id = f"open_auction{number}"
        out.append(f'<open_auction id="{auction_id}">'
                   f"<initial>{rng.randint(1, 200)}.00</initial>")
        bids = rng.randint(0, 2)
        for _ in range(bids):
            out.append(f"<bidder><increase>{rng.randint(1, 50)}.00"
                       f"</increase></bidder>")
        out.append("</open_auction>")
        doc.bidders[auction_id] = bids
        elements += 2 + 2 * bids
        attributes += 1
    out.append("</open_auctions><closed_auctions>")
    closed = max(1, int(6 * scale))
    for number in range(closed):
        out.append(f'<closed_auction id="closed_auction{number}">'
                   f"<price>{rng.randint(5, 500)}.00</price></closed_auction>")
    elements += 1 + 2 * closed
    attributes += closed
    out.append("</closed_auctions></site>")
    doc.xml = "".join(out)
    doc.labelled_nodes = elements + attributes
    return doc


# ----------------------------------------------------------------------
# auction-oltp: bids, retractions and point reads
# ----------------------------------------------------------------------

#: Shares of the auction-oltp mix.  Bid-history reads go to auctions
#: with at least :data:`ACTIVE_BIDS` bids and make nine reads in ten, so
#: the median read latency falls near the middle of the bid-read mode
#: of the two-mode read distribution, not on the gap below it.
BID_SHARE = 0.45
RETRACT_SHARE = 0.05
BID_READ_SHARE = 0.50 * 9 / 10
ACTIVE_BIDS = 2


@dataclass(frozen=True)
class Request:
    """One auction-oltp request.

    ``kind`` is ``bid``, ``retract``, ``read-bids`` or ``read-person``;
    ``target`` is an ``@id``.  ``text`` is a bid's increase, and
    ``expected`` what a read must return: the auction's bidder count or
    the person's name.
    """

    kind: str
    target: str
    text: str = ""
    expected: object = None


def oltp_requests(doc: XMarkText, seed: int) -> Iterator[Request]:
    """The endless, seeded auction-oltp request stream over ``doc``."""
    rng = random.Random(derive_seed(seed, "auction-oltp"))
    bidders = dict(doc.bidders)
    auctions = list(bidders)
    while True:
        roll = rng.random()
        if roll < RETRACT_SHARE:
            candidates = [a for a in auctions if bidders[a]]
            if candidates:
                auction = rng.choice(candidates)
                bidders[auction] -= 1
                yield Request("retract", auction)
                continue
            roll = RETRACT_SHARE  # nothing to retract: bid instead
        if roll < RETRACT_SHARE + BID_SHARE:
            auction = rng.choice(auctions)
            bidders[auction] += 1
            yield Request("bid", auction, text=f"{rng.randint(1, 50)}.00")
        elif roll < RETRACT_SHARE + BID_SHARE + BID_READ_SHARE:
            active = [a for a in auctions if bidders[a] >= ACTIVE_BIDS]
            auction = rng.choice(active or auctions)
            yield Request("read-bids", auction, expected=bidders[auction])
        else:
            person, name = rng.choice(doc.people)
            yield Request("read-person", person, expected=name)


# ----------------------------------------------------------------------
# relabel-batch: five-statement update programs
# ----------------------------------------------------------------------

#: Standing queries registered on the relabel-batch document.  None of
#: the five statements can change their results, so every program's
#: static check must come back all-independent.
STANDING_QUERIES = (
    "/site/categories/category/name",
    "/site/regions/*/item/name",
)


@dataclass(frozen=True)
class Program:
    """One relabel-batch update program and the query that follows it."""

    source: str
    query: str
    #: Text of the query's single expected result node.
    expected: str


def relabel_programs(doc: XMarkText, seed: int) -> Iterator[Program]:
    """Seeded update programs over ``doc``, one per item description.

    Every program deletes one item's ``description``, so the stream
    ends when none is left.  Each program also grows the person list
    and the closed auctions by one and keeps the open auctions as many.
    """
    rng = random.Random(derive_seed(seed, "relabel-batch"))
    people = [person for person, _name in doc.people]
    open_auctions = collections.deque(doc.bidders)
    described = list(doc.items)
    rng.shuffle(described)
    for number in itertools.count():
        if not described:
            return
        middle = len(people) // 2
        anchor = people[middle]
        person = f"person_new{number}"
        name = f"{rng.choice(FIRST)} {rng.choice(LAST)}"
        auction = f"open_auction_new{number}"
        initial = f"{rng.randint(1, 200)}.00"
        region, item = described.pop()
        people.insert(middle, person)
        oldest = open_auctions.popleft()
        open_auctions.append(auction)
        repriced = rng.choice(open_auctions)
        price = f"{rng.randint(1, 200)}.00"
        source = (
            f'insert <person id="{person}"><name>{name}</name></person> '
            f"before /site/people/person[@id='{anchor}'];\n"
            f'insert <open_auction id="{auction}"><initial>{initial}'
            f"</initial></open_auction> into /site/open_auctions;\n"
            f"move /site/open_auctions/open_auction[1] "
            f"into /site/closed_auctions;\n"
            f"delete /site/regions/{region}/item[@id='{item}']/description;\n"
            f"replace value of /site/open_auctions/open_auction"
            f"[@id='{repriced}']/initial with '{price}';\n"
        )
        choice = rng.randrange(3)
        if choice == 0:
            query, expected = f"//person[@id='{person}']/name", name
        elif choice == 1:
            query = f"/site/closed_auctions/open_auction[@id='{oldest}']/@id"
            expected = oldest
        else:
            query = f"//open_auction[@id='{repriced}']/initial"
            expected = price
        yield Program(source=source, query=query, expected=expected)


# ----------------------------------------------------------------------
# catalog-read: a fixed query mix per document
# ----------------------------------------------------------------------

#: Element names of the catalog's two point queries per document.
POINT_QUERY_NAMES = ("person", "increase")


@dataclass(frozen=True)
class CatalogQuery:
    """One catalog-read query and the ElementTree oracle that checks it.

    ``path`` is an XPath for ``StoredDocument.xpath``, or a
    ``//``-separated name chain for ``descendant_path`` when ``join`` is
    set.  ``oracle`` is an ``ElementTree.findall`` path relative to the
    root element; ``after`` names the ``@id`` whose later siblings in
    the oracle's result are the expected answer (the
    ``following-sibling::`` query, which ``findall`` cannot express).
    """

    kind: str
    path: str
    oracle: str
    join: bool = False
    after: str = ""


def catalog_queries(doc: XMarkText, rng: random.Random) -> List[CatalogQuery]:
    """The fixed XPath mix plus one structural join, for one document.

    The seed picks the ``@id`` parameters; the ``following-sibling::``
    anchor sits three quarters down the person list, so that query's
    result size does not depend on the seed.
    """
    person = rng.choice(doc.people)[0]
    sibling_of = doc.people[len(doc.people) * 3 // 4][0]
    region = rng.choice(REGIONS)
    item = rng.choice(doc.items)[1]
    return [
        CatalogQuery("id-lookup", f"//person[@id='{person}']/name",
                     f".//person[@id='{person}']/name"),
        CatalogQuery("child-chain",
                     "/site/open_auctions/open_auction/bidder/increase",
                     "./open_auctions/open_auction/bidder/increase"),
        CatalogQuery("descendants", f"//{region}//listitem",
                     f".//{region}//listitem"),
        CatalogQuery("name-predicate", f"/site/regions/{region}/item[name]",
                     f"./regions/{region}/item[name]"),
        CatalogQuery("following-sibling",
                     f"/site/people/person[@id='{sibling_of}']"
                     f"/following-sibling::person",
                     "./people/person", after=sibling_of),
        CatalogQuery("ancestor", "//increase/ancestor::open_auction",
                     "./open_auctions/open_auction[bidder]"),
        CatalogQuery("wildcard", f"/site/regions/*/item[@id='{item}']/name",
                     f"./regions/*/item[@id='{item}']/name"),
        CatalogQuery("join", "open_auction//bidder//increase",
                     ".//open_auction//bidder//increase", join=True),
    ]
