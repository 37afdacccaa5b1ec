"""The three workloads: set-up, one request, and the work after the loop.

Each workload is a closed loop with one client, no think time, one
thread and one storage connection.  It drives only the program's public
API (``open_repository``, ``StoredDocument.xpath``/``descendant_path``,
``XMLRepository.point_query``/``transaction``/``persist``, ``Journal``
and ``recover``, and ``repro.ulang``), and looks every entry point up at
call time so that a traced run's wrappers are the ones called.

The flush policy is the same everywhere: the journal syncs at commit
(``sync="commit"``) and each backend keeps its built-in policy.

The writing workloads run in *epochs*: every ``epoch`` requests the
store is set up afresh (with the loop clock stopped) and the seeded
request stream starts over.  Their updates grow the document, and
without the reset a faster program would run more requests against a
larger document; with it, every run measures the same document states.
The garbage collector is run before every timed set-up and reload so
those samples start from the same heap state.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import shutil
import xml.etree.ElementTree as ET
from typing import Dict, Iterator, List, Tuple

import repro
import repro.errors
import repro.ulang
from repro.store.snapshots import snapshot_document

import checks
import inputs
from measure import Samples, samples_needed

#: Reload rounds after the loop, and after each epoch: each reopens the
#: store once for a cold point query and once for a ``get``.
RELOADS = 4
EPOCH_RELOADS = 2


def _url(engine: str, path: str) -> str:
    return f"{engine}:///{os.path.abspath(path)}"


class Workload:
    """Shared bookkeeping; subclasses supply set-up, requests and checks."""

    name = ""
    #: Labelling schemes the workload's documents use.
    schemes: Tuple[str, ...] = ()
    #: What the report calls the ``request`` series, when it has a name
    #: of its own (``txn_ms``, ``batch_ms``).
    request_name = ""

    #: Requests between the boundaries where the loop may stop.
    epoch = 1
    #: Point queries per cold reopen.  A backend without a node table
    #: materialises the document on the first, so it takes only one.
    point_queries = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.served = 0
        self.samples = Samples()
        #: Failed requests, as messages (exceptions, refusals, rollbacks).
        self.failures: List[str] = []
        #: Failed output checks, as messages.
        self.problems: List[str] = []
        #: Workload-specific figures printed beside the metrics:
        #: name -> (value, unit, sample count).
        self.extras: Dict[str, Tuple[object, str, int]] = {}
        self._setups: List[str] = []
        self._setup_s = 0.0

    @property
    def needs(self) -> Dict[str, int]:
        """Samples the loop must take: the result reports both p90s."""
        return {"request": samples_needed(0.9), "query": samples_needed(0.9)}

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def set_up(self, repeats: int = 1) -> None:
        """Set up ``repeats`` times, keep the last; times each ``setup``."""
        for _ in range(repeats):
            if self._setups:
                self.close()
                shutil.rmtree(self._setups[-1], ignore_errors=True)
            path = os.path.join(self.workdir, f"setup{len(self._setups)}")
            os.makedirs(path)
            self._setups.append(path)
            gc.collect()
            self._setup_s = 0.0
            self.setup(path)
            self.samples.add("setup", self._setup_s)

    @contextlib.contextmanager
    def setup_step(self) -> Iterator[None]:
        """Time one step of ``setup``.  A set-up takes up to seconds, so
        it is timed step by step, each step scaled by its own
        calibration (see ``measure``), and ``setup_s`` sums the steps."""
        with self.samples.timed() as interval:
            yield
        self._setup_s += interval.seconds

    def at_boundary(self) -> bool:
        """Whether the loop may stop before the next request."""
        return self.served % self.epoch == 0

    def begin_epoch(self) -> None:
        """Called at each boundary the loop passes, with its clock stopped:
        the finished epoch's store is closed and reloaded, and a fresh
        set-up starts the next."""
        if self.served:
            self.end_epoch(EPOCH_RELOADS)
            self.set_up()

    def end_epoch(self, reloads: int) -> None:
        """Close the live store and check ``reloads`` cold reopens."""
        raise NotImplementedError

    def requests(self) -> Iterator[object]:
        """The seeded stream, restarted at every epoch."""
        while True:
            yield from itertools.islice(self.stream(), self.epoch)

    # -- subclass interface -------------------------------------------------

    def setup(self, path: str) -> None:
        raise NotImplementedError

    def stream(self) -> Iterator[object]:
        """The seeded request stream over the current set-up."""
        raise NotImplementedError

    def execute(self, request) -> int:
        """Serve one request; returns the operations it completed."""
        raise NotImplementedError

    def label(self, request) -> str:
        """A short tag naming the request's kind (for span identifiers)."""
        return self.name

    def documents(self) -> List[Tuple[str, int, int]]:
        """``(request label, labelled nodes, visits)`` per document, for
        the per-node cost table of a traced run; empty for one document."""
        return []

    def finish(self) -> Dict[str, float]:
        """Checks and end-of-run measurements, after the loop."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- shared end-of-run measurements --------------------------------------

    def _reload(self, rounds: int, point_name: str) -> None:
        """Close the writing workloads' store, then reopen it cold.

        Each round opens the store once for ``point_queries`` point
        queries before anything is materialised and once for
        ``open_repository`` plus ``get``; the first round also checks
        both answers against the last checkpoint (or the ingest, when
        nothing was persisted).
        """
        name, url = "auction", self.url
        if self.checkpoint is None:
            self.checkpoint = self.repository.backend.get(name)
        self.close()
        expected = self.checkpoint
        expected_values = checks.point_query_values(
            ET.fromstring(expected.xml), point_name)
        for number in range(rounds):
            gc.collect()
            repository = repro.open_repository(url)
            try:
                for _ in range(self.point_queries):
                    with self.samples.timed("point_query"):
                        records = repository.point_query(name, point_name)
            finally:
                repository.close()
            if number == 0:
                values = [record.value for record in records]
                self.check(values == expected_values,
                           f"cold point_query({point_name!r}) differs from "
                           f"the oracle: "
                           f"{checks.first_difference(expected_values, values)}")
            gc.collect()
            with self.samples.timed("open"):
                repository = repro.open_repository(url)
                stored = repository.get(name)
            try:
                if number == 0:
                    reloaded = snapshot_document(stored.ldoc, name)
                    self.check(
                        reloaded.xml == expected.xml
                        and reloaded.label_stream == expected.label_stream,
                        "the reloaded document differs from the last "
                        "checkpoint")
            finally:
                repository.close()

    def _bytes_at_rest(self, engine: str, snapshot) -> float:
        """Backend bytes for ``snapshot`` in a fresh store ÷ its XML bytes.

        Measured on a fresh store because the page file is append-only:
        its own size counts every checkpoint the loop managed, not the
        space the final state takes.
        """
        path = os.path.join(self.workdir, f"at-rest.{engine}")
        repository = repro.open_repository(_url(engine, path))
        try:
            repository.restore(snapshot)
            stored_bytes = repository.backend.storage_bytes()
        finally:
            repository.close()
        return stored_bytes / len(snapshot.xml.encode("utf-8"))

    def _label_bits_per_node(self, ldocs) -> float:
        bits = sum(ldoc.total_label_bits() for ldoc in ldocs)
        return bits / sum(len(ldoc.labels) for ldoc in ldocs)


# ----------------------------------------------------------------------
# auction-oltp
# ----------------------------------------------------------------------

class AuctionOltp(Workload):
    """Journaled bid transactions and point reads on one sqlite document."""

    name = "auction-oltp"
    schemes = ("qed",)
    request_name = "txn_ms"
    scale = 10
    checkpoint_every = 25
    epoch = 100
    point_queries = 5

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        #: (request, result nodes, first result's text) of every read.
        self.reads: List[Tuple[inputs.Request, int, str]] = []
        #: Commits over the whole run, across epochs, so the checkpoint
        #: cadence does not depend on where the epochs end.
        self.commits = 0

    def setup(self, path: str) -> None:
        self.url = _url("sqlite", os.path.join(path, "auction.db"))
        self.journal_path = os.path.join(path, "auction.journal")
        with self.setup_step():
            self.doc = inputs.xmark_text(
                self.scale, inputs.derive_seed(self.seed, "auction-oltp.doc"))
        with self.setup_step():
            self.repository = repro.open_repository(self.url)
            self.stored = self.repository.add("auction", self.doc.xml,
                                              scheme="qed")
        with self.setup_step():
            self.journal = repro.Journal.create(
                self.journal_path, self.stored.ldoc, name="auction",
                sync="commit")
        with self.setup_step():
            # Warms the accelerator and gives the client its auctions.
            auctions = self.stored.xpath("/site/open_auctions/open_auction")
            self.auctions = {node.attribute("id").value: node
                             for node in auctions}
        #: The state the last persist wrote (None: still the ingest).
        self.checkpoint = None

    def close(self) -> None:
        self.journal.close()
        self.repository.close()

    def end_epoch(self, reloads: int) -> None:
        self._reload(reloads, "name")

    def stream(self) -> Iterator[inputs.Request]:
        return inputs.oltp_requests(self.doc, self.seed)

    def label(self, request: inputs.Request) -> str:
        return request.kind

    def execute(self, request: inputs.Request) -> int:
        self.served += 1
        kind = request.kind
        if kind in ("bid", "retract"):
            auction = self.auctions[request.target]
            with self.samples.timed("request"), self.repository.transaction(
                    "auction", journal=self.journal) as txn:
                if kind == "bid":
                    bidder = txn.append_child(auction, "bidder").node
                    increase = txn.append_child(bidder, "increase").node
                    txn.set_text(increase, request.text)
                else:
                    bidders = [child for child in auction.element_children()
                               if child.name == "bidder"]
                    txn.delete(bidders[-1])
            self.commits += 1
            if self.commits % self.checkpoint_every == 0:
                with self.samples.timed("checkpoint"):
                    self.checkpoint = self.repository.persist("auction")
            return 1
        if kind == "read-bids":
            path = (f"//open_auction[@id='{request.target}']"
                    f"/bidder/increase")
        else:
            path = f"//person[@id='{request.target}']/name"
        with self.samples.timed("query"):
            nodes = self.stored.xpath(path)
        self.reads.append((request, len(nodes),
                           nodes[0].text_value() if nodes else ""))
        return 1

    def finish(self) -> Dict[str, float]:
        live = self.stored.ldoc
        signature = checks.document_signature(live)
        live_stream = snapshot_document(live, "auction").label_stream
        label_bits = self._label_bits_per_node([live])
        for request, count, text in self.reads:
            if request.kind == "read-bids":
                self.check(count == request.expected,
                           f"{request.target} shows {count} bids, "
                           f"expected {request.expected}")
            else:
                self.check(count == 1 and text == request.expected,
                           f"{request.target} reads {text!r} ({count} "
                           f"nodes), expected {request.expected!r}")
        self.journal.close()
        with self.samples.timed() as took:
            recovered = repro.recover(self.journal_path)
        self.extras["recover_s"] = (took.seconds, "s", 1)
        self.check(checks.document_signature(recovered.ldoc) == signature,
                   "recover() does not reproduce the live document: "
                   + checks.first_difference(
                       signature,
                       checks.document_signature(recovered.ldoc)))
        self.check(snapshot_document(recovered.ldoc, "auction").label_stream
                   == live_stream,
                   "recovered labels are not bit-identical")
        self.end_epoch(RELOADS)
        return {
            "store_bytes_per_xml_byte": self._bytes_at_rest(
                "sqlite", self.checkpoint),
            "label_bits_per_node": label_bits,
        }


# ----------------------------------------------------------------------
# catalog-read
# ----------------------------------------------------------------------

class CatalogRead(Workload):
    """Cold reads of a three-document sqlite corpus; nothing is written.

    A request is one document visit: two node-table point queries, a
    ``get``, the XPath mix and a structural join.  A round visits the
    three documents in order on a freshly opened repository.
    """

    name = "catalog-read"
    schemes = ("qed",)
    scales = (5, 10, 20)
    epoch = len(scales)

    def setup(self, path: str) -> None:
        self.url = _url("sqlite", os.path.join(path, "catalog.db"))
        with self.setup_step():
            self.docs = [
                (f"catalog{scale}", inputs.xmark_text(
                    scale, inputs.derive_seed(self.seed,
                                              f"catalog-read.doc{scale}")))
                for scale in self.scales
            ]
        with self.setup_step():
            repository = repro.open_repository(self.url)
        try:
            for name, doc in self.docs:
                with self.setup_step():
                    repository.add(name, doc.xml, scheme="qed")
        finally:
            with self.setup_step():
                repository.close()
        self.repository = None
        self.rounds = 0
        #: (round, document, query kind) -> node ids of the result.
        self.results: Dict[Tuple[int, str, str], List[int]] = {}
        #: (document, element name) -> values, from the first round.
        self.points: Dict[Tuple[str, str], List[str]] = {}
        self._plan = None
        self._open_s = 0.0

    def close(self) -> None:
        if self.repository is not None:
            self.repository.close()
            self.repository = None

    def plan(self):
        """Per document: its name, generated text and query mix."""
        if self._plan is None:
            rng = random.Random(inputs.derive_seed(self.seed, self.name))
            self._plan = [(name, doc, inputs.catalog_queries(doc, rng))
                          for name, doc in self.docs]
        return self._plan

    def stream(self) -> Iterator[int]:
        return iter(range(len(self.plan())))

    def label(self, visit: int) -> str:
        return self.plan()[visit][0]

    def documents(self) -> List[Tuple[str, int, int]]:
        return [(name, doc.labelled_nodes, self.rounds)
                for name, doc, _queries in self.plan()]

    def begin_epoch(self) -> None:
        """Each round starts from a collected heap; the corpus is
        read-only and every round reopens the store itself."""
        gc.collect()

    def execute(self, visit: int) -> int:
        self.served += 1
        name, _doc, queries = self.plan()[visit]
        point_names = inputs.POINT_QUERY_NAMES
        try:
            if visit == 0:
                with self.samples.timed() as took:
                    self.repository = repro.open_repository(self.url)
                self._open_s = took.seconds
            for point_name in point_names:
                with self.samples.timed("point_query"):
                    records = self.repository.point_query(name, point_name)
                if self.rounds == 0:
                    self.points[(name, point_name)] = [
                        record.value for record in records]
            with self.samples.timed() as took:
                stored = self.repository.get(name)
            self._open_s += took.seconds
            for query in queries:
                with self.samples.timed("query") as took:
                    if query.join:
                        nodes = stored.descendant_path(
                            query.path.split("//"))
                    else:
                        nodes = stored.xpath(query.path)
                self.samples.add("request", took.seconds)
                self.results[(self.rounds, name, query.kind)] = [
                    node.node_id for node in nodes]
        except BaseException:
            self.close()
            raise
        if visit == len(self.plan()) - 1:
            self.close()
            self.samples.add("open", self._open_s)
            self.rounds += 1
        return len(point_names) + 1 + len(queries)

    def finish(self) -> Dict[str, float]:
        self.close()
        self.check(self.rounds > 0, "no complete round was run")
        repository = repro.open_repository(self.url)
        try:
            ldocs = []
            fingerprints = []
            for name, doc, queries in self.plan():
                stored = repository.get(name)
                ldocs.append(stored.ldoc)
                by_id = {node.node_id: node
                         for node in stored.ldoc.document.all_nodes()}
                root = ET.fromstring(doc.xml)
                for point_name in inputs.POINT_QUERY_NAMES:
                    expected = checks.point_query_values(root, point_name)
                    actual = self.points.get((name, point_name), [])
                    self.check(actual == expected,
                               f"{name}: point_query({point_name!r}) "
                               + checks.first_difference(expected, actual))
                for query in queries:
                    first = self.results.get((0, name, query.kind), [])
                    for round_number in range(1, self.rounds):
                        again = self.results[(round_number, name, query.kind)]
                        self.check(again == first,
                                   f"{name} {query.kind}: round "
                                   f"{round_number} differs from round 0")
                    actual = [checks.node_fingerprint(by_id[node_id])
                              for node_id in first]
                    expected = checks.oracle_results(root, query.oracle,
                                                     query.after)
                    self.check(actual == expected,
                               f"{name} {query.kind} {query.path!r}: "
                               + checks.first_difference(expected, actual))
                    fingerprints.append((name, query.kind, actual))
            self.extras["result_digest"] = (checks.digest(fingerprints), "",
                                            len(fingerprints))
            stored_bytes = repository.backend.storage_bytes()
        finally:
            repository.close()
        xml_bytes = sum(len(doc.xml.encode("utf-8")) for _n, doc in self.docs)
        return {
            "store_bytes_per_xml_byte": stored_bytes / xml_bytes,
            "label_bits_per_node": self._label_bits_per_node(ldocs),
        }


# ----------------------------------------------------------------------
# relabel-batch
# ----------------------------------------------------------------------

class RelabelBatch(Workload):
    """Five-statement update programs on a Dewey page-file document."""

    name = "relabel-batch"
    schemes = ("dewey",)
    request_name = "batch_ms"
    scale = 5
    checkpoint_every = 10
    epoch = 50

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        #: Every program with the values its follow-up query returned.
        self.answers: List[Tuple[inputs.Program, List[str]]] = []

    def setup(self, path: str) -> None:
        self.url = _url("pagefile", os.path.join(path, "auction.pages"))
        with self.setup_step():
            self.doc = inputs.xmark_text(
                self.scale, inputs.derive_seed(self.seed,
                                               "relabel-batch.doc"))
        with self.setup_step():
            self.repository = repro.open_repository(self.url)
            self.stored = self.repository.add("auction", self.doc.xml,
                                              scheme="dewey")
        with self.setup_step():
            for query in inputs.STANDING_QUERIES:
                self.stored.register_query(query)
            self.stored.xpath(inputs.STANDING_QUERIES[0])
        self.programs = 0
        #: The state the last persist wrote (None: still the ingest).
        self.checkpoint = None

    def close(self) -> None:
        self.repository.close()

    def end_epoch(self, reloads: int) -> None:
        self._reload(reloads, "person")

    def stream(self) -> Iterator[inputs.Program]:
        return inputs.relabel_programs(self.doc, self.seed)

    def execute(self, program: inputs.Program) -> int:
        self.served += 1
        with self.samples.timed("request"):
            parsed = repro.ulang.parse_program(program.source)
            report = self.stored.check_update(parsed)
            if report.exit_code or not all(verdict.independent
                                           for verdict in report.verdicts):
                raise RuntimeError(f"check_update refused the program: "
                                   f"{report.render()}")
            repro.ulang.run_program(self.stored.ldoc, parsed)
        with self.samples.timed("query"):
            nodes = self.stored.xpath(program.query)
        self.answers.append((program, [checks.node_fingerprint(node)[2]
                                       for node in nodes]))
        self.programs += 1
        if self.programs % self.checkpoint_every == 0:
            with self.samples.timed("checkpoint"):
                self.checkpoint = self.repository.persist("auction")
        return 1

    def finish(self) -> Dict[str, float]:
        live = self.stored.ldoc
        try:
            live.verify_order()
        except repro.errors.ReproError as error:
            self.check(False, f"verify_order() failed: {error}")
        for program, values in self.answers:
            self.check(values == [program.expected],
                       f"{program.query!r} returned {values}, expected "
                       f"{[program.expected]}")
        root = ET.fromstring(repro.serialize(live.document))
        people = len(self.doc.people) + self.programs
        descriptions = len(self.doc.items) - self.programs
        self.check(len(root.findall("./people/person")) == people
                   and len(root.findall(".//item/description"))
                   == descriptions,
                   "the final document does not hold the persons and "
                   "descriptions the programs leave")
        label_bits = self._label_bits_per_node([live])
        # The reloads check the page file against this final state.
        self.checkpoint = self.repository.persist("auction")
        self.end_epoch(RELOADS)
        return {
            "store_bytes_per_xml_byte": self._bytes_at_rest(
                "pagefile", self.checkpoint),
            "label_bits_per_node": label_bits,
        }


WORKLOADS = {cls.name: cls for cls in (AuctionOltp, CatalogRead,
                                       RelabelBatch)}
