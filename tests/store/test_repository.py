"""The XML repository: management, queries, snapshots, scheme advice."""

import gc
import weakref

import pytest

from repro.data.sample import SAMPLE_XML
from repro.errors import (
    BatchError,
    SnapshotMismatchError,
    StorageError,
    UpdateError,
)
from repro.store.backends import node_records
from repro.store.repository import (
    Snapshot,
    XMLRepository,
    open_repository,
    suggest_scheme,
)
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.xmark import xmark_document

LIBRARY = (
    "<library><shelf><book><title>Dune</title></book>"
    "<book><title>Neuromancer</title></book></shelf></library>"
)


@pytest.fixture
def repo():
    repository = open_repository("memory://")
    repository.add("sample", SAMPLE_XML, scheme="qed")
    repository.add("library", LIBRARY)  # default scheme (cdqs)
    return repository


class TestManagement:
    def test_add_and_get(self, repo):
        assert repo.get("sample").ldoc.scheme.metadata.name == "qed"
        assert repo.get("library").ldoc.scheme.metadata.name == "cdqs"

    def test_names_and_len(self, repo):
        assert repo.names() == ["library", "sample"]
        assert len(repo) == 2
        assert "sample" in repo

    def test_duplicate_name_rejected(self, repo):
        with pytest.raises(UpdateError):
            repo.add("sample", "<x/>")

    def test_unknown_name_rejected(self, repo):
        with pytest.raises(UpdateError):
            repo.get("missing")

    def test_remove(self, repo):
        repo.remove("library")
        assert "library" not in repo

    def test_add_existing_tree(self):
        from repro.data.sample import sample_document

        repository = open_repository("memory://")
        stored = repository.add("doc", sample_document(), scheme="vector")
        assert stored.ldoc.scheme.metadata.name == "vector"

    def test_scheme_config_passes_through(self):
        repository = open_repository("memory://")
        stored = repository.add("doc", "<a/>", scheme="xrel", gap=32)
        assert stored.ldoc.scheme.gap == 32


class TestQueries:
    def test_find_by_name(self, repo):
        assert [n.name for n in repo.get("library").find("title")] == [
            "title", "title",
        ]

    def test_find_by_value(self, repo):
        found = repo.get("library").find_value("Dune")
        assert [n.name for n in found] == ["title"]

    def test_descendant_path(self, repo):
        titles = repo.get("library").descendant_path(
            ["library", "book", "title"]
        )
        assert [n.text_value() for n in titles] == ["Dune", "Neuromancer"]

    def test_descendant_path_misses(self, repo):
        assert repo.get("library").descendant_path(["book", "isbn"]) == []

    def test_xpath_passthrough(self, repo):
        result = repo.get("sample").xpath("//editor/name")
        assert [n.name for n in result] == ["name"]

    def test_indexes_refresh_after_update(self, repo):
        stored = repo.get("library")
        shelf = stored.find("shelf")[0]
        stored.ldoc.updates.append_child(shelf, "magazine")
        assert [n.name for n in stored.find("magazine")] == ["magazine"]

    def test_index_refresh_after_content_update(self, repo):
        stored = repo.get("library")
        title = stored.find("title")[0]
        stored.ldoc.updates.set_text(title, "Dune Messiah")
        assert stored.find_value("Dune") == []
        assert [n.text_value() for n in stored.find_value("Dune Messiah")] == [
            "Dune Messiah"
        ]


class TestSnapshots:
    def test_snapshot_restore_round_trip(self, repo):
        snapshot = repo.snapshot("sample")
        assert isinstance(snapshot, Snapshot)
        restored = repo.restore(snapshot, name="sample-v2")
        original = repo.get("sample")
        assert restored.ldoc.labels_in_document_order() == (
            original.ldoc.labels_in_document_order()
        )
        restored.ldoc.verify_order()

    def test_snapshot_survives_later_edits(self, repo):
        stored = repo.get("sample")
        before = stored.ldoc.labels_in_document_order()
        snapshot = repo.snapshot("sample")
        # Mutate the live document after the snapshot.
        stored.ldoc.updates.append_child(stored.ldoc.document.root, "late")
        restored = repo.restore(snapshot, name="frozen")
        assert restored.ldoc.labels_in_document_order() == before

    def test_snapshot_refused_while_a_batch_is_open(self):
        repository = open_repository("memory://")
        stored = repository.add("doc", LIBRARY, scheme="dewey")
        root = stored.ldoc.document.root
        batch = stored.ldoc.batch()
        batch.insert_before(root.element_children()[0], "head")
        assert batch.pending  # dewey defers a leftmost insert
        for call in (repository.snapshot, repository.persist):
            with pytest.raises(BatchError, match="batch is open"):
                call("doc")
        batch.apply()
        assert repository.snapshot("doc").name == "doc"

    def test_restore_rejects_name_clash(self, repo):
        snapshot = repo.snapshot("sample")
        with pytest.raises(UpdateError):
            repo.restore(snapshot)

    def test_restore_detects_mismatched_stream(self, repo):
        snapshot = repo.snapshot("sample")
        broken = Snapshot(
            name="broken",
            scheme_name=snapshot.scheme_name,
            xml="<tiny/>",
            label_stream=snapshot.label_stream,
        )
        with pytest.raises(SnapshotMismatchError) as excinfo:
            repo.restore(broken)
        assert excinfo.value.label_count > excinfo.value.node_count == 1

    def test_restore_rejects_undecodable_stream(self, repo):
        snapshot = repo.snapshot("sample")
        broken = Snapshot(
            name="broken",
            scheme_name=snapshot.scheme_name,
            xml=snapshot.xml,
            label_stream=snapshot.label_stream[: len(snapshot.label_stream)
                                               // 2],
        )
        with pytest.raises(StorageError):
            repo.restore(broken)

    @pytest.mark.parametrize("scheme_name", [
        "qed", "cdqs", "vector", "ordpath", "prepost", "dewey",
    ])
    def test_round_trip_per_scheme(self, scheme_name):
        repository = open_repository("memory://")
        repository.add("doc", SAMPLE_XML, scheme=scheme_name)
        snapshot = repository.snapshot("doc")
        restored = repository.restore(snapshot, name="copy")
        assert restored.ldoc.labels_in_document_order() == (
            repository.get("doc").ldoc.labels_in_document_order()
        )

    def test_snapshot_persists_scheme_configuration(self):
        """Regression: a snapshot of a kwargs-configured scheme used to
        restore under a default-configured scheme of the same name."""
        repository = open_repository("memory://")
        repository.add("doc", SAMPLE_XML, scheme="dewey", component_bits=4)
        snapshot = repository.snapshot("doc")
        assert snapshot.scheme_config == {"component_bits": 4}
        restored = repository.restore(snapshot, name="copy")
        assert restored.ldoc.scheme.component_bits == 4
        assert restored.ldoc.scheme.configuration == {"component_bits": 4}
        original = repository.get("doc").ldoc
        assert restored.ldoc.total_label_bits() == original.total_label_bits()

    def test_snapshot_config_changes_storage_width(self):
        """The configuration is load-bearing: restoring under default
        kwargs would report different storage."""
        repository = open_repository("memory://")
        narrow = repository.add("narrow", SAMPLE_XML, scheme="dewey",
                                component_bits=4)
        wide = repository.add("wide", SAMPLE_XML, scheme="dewey")
        assert narrow.storage_bits() != wide.storage_bits()
        restored = repository.restore(repository.snapshot("narrow"),
                                      name="copy")
        assert restored.storage_bits() == narrow.storage_bits()


class TestStorageReport:
    def test_report_rows(self, repo):
        report = repo.storage_report()
        assert len(report) == 2
        for name, scheme, nodes, bits in report:
            assert nodes > 0
            assert bits > 0


class TestOpenRepository:
    def test_memory_url(self):
        repository = open_repository("memory://")
        repository.add("doc", LIBRARY)
        assert repository.backend.url_scheme == "memory"
        assert repository.names() == ["doc"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StorageError):
            open_repository("carrier-pigeon://nest")

    def test_bare_path_needs_known_suffix(self):
        with pytest.raises(StorageError):
            open_repository("/tmp/unknowable.xyz")

    def test_context_manager_closes_backend(self):
        with open_repository("memory://") as repository:
            repository.add("doc", LIBRARY)
        with pytest.raises(StorageError):
            repository.backend.names()

    def test_persist_writes_live_edits_through(self):
        repository = open_repository("memory://")
        repository.add("doc", LIBRARY)
        stored = repository.get("doc")
        shelf = stored.find("shelf")[0]
        stored.ldoc.updates.append_child(shelf, "magazine")
        assert b"magazine" not in repository.backend.get("doc").xml.encode()
        repository.persist("doc")
        assert "magazine" in repository.backend.get("doc").xml

    def test_persist_requires_materialised_document(self):
        repository = open_repository("memory://")
        with pytest.raises(UpdateError):
            repository.persist("ghost")

    def test_point_query_falls_back_to_materialisation(self):
        repository = open_repository("memory://")
        repository.add("doc", LIBRARY)
        records = repository.point_query("doc", "title")
        assert [record.value for record in records] == [
            "Dune", "Neuromancer",
        ]
        assert repository.live_names() == ["doc"]

    def test_reopened_documents_release_their_schemes(self, tmp_path):
        """Closing a repository frees what its reads built: after five
        open/get/join/close rounds no earlier round's scheme is alive."""
        url = f"sqlite:///{tmp_path / 'catalog.db'}"
        with open_repository(url) as repository:
            repository.add("doc", SAMPLE_XML, scheme="qed")
        schemes = []
        for _ in range(5):
            repository = open_repository(url)
            stored = repository.get("doc")
            assert stored.descendant_path(["book", "publisher", "name"])
            schemes.append(weakref.ref(stored.ldoc.scheme))
            repository.close()
        gc.collect()
        assert [scheme() for scheme in schemes[:-1]] == [None] * 4


class TestSuggestScheme:
    def test_version_control_requirement(self):
        # Section 5.2: version control needs persistent labels.
        suggested = suggest_scheme(["version-control"])
        assert suggested == [
            "ordpath", "improved-binary", "qed", "cdqs", "vector",
        ]

    def test_large_documents_requirement(self):
        # Section 5.2: very large documents want overflow freedom.
        assert suggest_scheme(["large-documents"]) == ["qed", "cdqs", "vector"]

    def test_combined_requirements(self):
        assert suggest_scheme(
            ["version-control", "large-documents", "xpath", "compact"]
        ) == ["cdqs"]  # the survey's "most generic" conclusion again

    def test_unsatisfiable_combination(self):
        assert suggest_scheme(["no-division", "large-documents"]) == ["vector"]

    def test_unknown_requirement_rejected(self):
        with pytest.raises(UpdateError):
            suggest_scheme(["teleportation"])


class TestRegisteredQueries:
    def test_register_validates_and_dedupes(self, repo):
        entry = repo.get("library")
        entry.register_query("//book/title")
        entry.register_query("//book/title")
        entry.register_query("/library/shelf")
        assert entry.registered_queries == ["//book/title", "/library/shelf"]

    def test_register_rejects_bad_path(self, repo):
        from repro.errors import XPathError

        entry = repo.get("library")
        with pytest.raises(XPathError):
            entry.register_query("//book[position() = last()]")
        assert entry.registered_queries == []

    def test_registered_queries_returns_a_copy(self, repo):
        entry = repo.get("library")
        entry.register_query("//book")
        entry.registered_queries.append("//smuggled")
        assert entry.registered_queries == ["//book"]

    def test_check_update_uses_registered_queries(self, repo):
        entry = repo.get("library")
        entry.register_query("//book/title")
        report = entry.check_update("delete //book;")
        assert [v.query for v in report.verdicts] == ["//book/title"]
        assert not report.verdicts[0].independent
        assert report.exit_code == 1

    def test_check_update_clean_program(self, repo):
        entry = repo.get("library")
        entry.register_query("//book/title")
        report = entry.check_update(
            "insert <isbn>0-441-x</isbn> into /library/shelf/book[1];")
        assert report.verdicts[0].independent
        assert report.exit_code == 0

    def test_check_update_knows_the_scheme(self, repo):
        report = repo.get("library").check_update("delete //book;")
        assert report.prediction["scheme"] == "cdqs"
        assert report.prediction["persistent_labels"] is True


class TestPointQueryOracle:
    """The materialising point query builds records only for matches;
    it must return exactly the filtered rows of every node."""

    @staticmethod
    def assert_matches_filtered_rows(repository, ldoc):
        names = {node.name for node in ldoc.document.labeled_nodes()}
        assert len(names) > 20
        rows = node_records(ldoc)
        for name in sorted(names) + ["no-such-name"]:
            assert repository.point_query("xmark", name) == [
                row for row in rows if row.name == name
            ], name

    @pytest.fixture(scope="class")
    def xmark_xml(self):
        return serialize(xmark_document(scale=2, seed=3))

    def test_live_document(self, xmark_xml):
        repository = open_repository("memory://")
        stored = repository.add("xmark", xmark_xml, scheme="qed")
        self.assert_matches_filtered_rows(repository, stored.ldoc)

    def test_memory_backend(self, xmark_xml):
        writer = open_repository("memory://")
        writer.add("xmark", xmark_xml, scheme="dewey")
        repository = XMLRepository(backend=writer.backend)
        assert repository.live_names() == []
        assert repository.backend.point_query("xmark", "item") is None
        ldoc = XMLRepository(backend=writer.backend).get("xmark").ldoc
        self.assert_matches_filtered_rows(repository, ldoc)

    def test_pagefile_backend(self, xmark_xml, tmp_path):
        url = f"pagefile:///{tmp_path / 'xmark.pages'}"
        with open_repository(url) as writer:
            writer.add("xmark", xmark_xml, scheme="ordpath")
        with open_repository(url) as repository:
            assert repository.backend.point_query("xmark", "item") is None
            with open_repository(url) as other:
                ldoc = other.get("xmark").ldoc
                self.assert_matches_filtered_rows(repository, ldoc)
