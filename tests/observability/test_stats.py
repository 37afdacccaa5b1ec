"""StatsCollector: structural counts, estimates, learning, persistence."""

import pytest
from reference_stats import counted

import repro.ulang
from repro.observability.stats import (
    STATS_SCHEMA_VERSION,
    StatsCollector,
    render_stats,
)
from repro.updates.document import LabeledDocument
from repro.schemes.registry import make_scheme
from repro.store.repository import StoredDocument, open_repository
from repro.xmlmodel.parser import parse

LIBRARY_XML = (
    "<library><shelf><book><title>a</title></book>"
    "<book><title>b</title></book></shelf>"
    "<shelf><book><title>c</title></book></shelf></library>"
)


def library(scheme="qed"):
    return LabeledDocument(parse(LIBRARY_XML), make_scheme(scheme))


class TestCollection:
    def test_structural_counts(self):
        stats = StatsCollector.collect(library())
        assert stats.node_count == 9
        assert stats.element_count == 9
        assert stats.attribute_count == 0
        assert stats.tag_counts == {
            "library": 1, "shelf": 2, "book": 3, "title": 3,
        }
        assert stats.max_depth == 3
        assert stats.depth_histogram == {0: 1, 1: 2, 2: 3, 3: 3}
        assert stats.fanout_max == 2

    def test_attributes_counted_separately(self):
        ldoc = LabeledDocument(parse('<r a="1" b="2"><c/></r>'),
                               make_scheme("qed"))
        stats = StatsCollector.collect(ldoc)
        assert stats.element_count == 2
        assert stats.attribute_count == 2
        assert stats.node_count == 4

    def test_average_depth_equals_mean_subtree_size(self):
        # sum(depth) == sum(descendant counts): each node contributes
        # one descendant relationship per ancestor it has.
        ldoc = library()
        stats = StatsCollector.collect(ldoc)
        labeled_descendants = sum(
            sum(1 for child in node.descendants() if child.kind.is_labeled)
            for node in ldoc.document.labeled_nodes()
        )
        assert abs(stats.average_depth
                   - labeled_descendants / stats.node_count) < 1e-9

    def test_stale_and_refresh(self):
        ldoc = library()
        stats = StatsCollector.collect(ldoc)
        assert not stats.stale(ldoc)
        ldoc.updates.append_child(ldoc.document.root, "annex")
        assert stats.stale(ldoc)
        stats.observe("child", "book", 2, 4)
        stats.refresh(ldoc)
        assert not stats.stale(ldoc)
        assert stats.tag_counts["annex"] == 1
        # Learned selectivities survive a structural refresh.
        assert "child|book" in stats.selectivities


class TestStamp:
    """Counts are stamped with the document's structure_version."""

    @pytest.mark.parametrize("engine", ["sqlite", "pagefile"])
    def test_a_rename_keeps_the_node_count_but_refreshes(self, tmp_path,
                                                         engine):
        url = f"{engine}:///{tmp_path}/store.{engine}"
        with open_repository(url) as repository:
            stored = repository.add("d", "<a><item/><item/></a>",
                                    scheme="qed")
            repro.ulang.run_program(stored.ldoc, "rename //item as thing")
            report = stored.check_update("delete //thing")
            assert [finding.rule for finding in report.findings] == []
            assert stored.stats.tag_counts == {"a": 1, "thing": 2}
            repository.persist("d")
        with open_repository(url) as repository:
            payload = repository.snapshot("d").stats
            assert payload["tag_counts"] == {"a": 1, "thing": 2}

    @pytest.mark.parametrize("engine", ["sqlite", "pagefile"])
    def test_a_cold_get_walks_nothing(self, tmp_path, engine):
        url = f"{engine}:///{tmp_path}/store.{engine}"
        with open_repository(url) as repository:
            repository.add("d", LIBRARY_XML, scheme="qed")
        with open_repository(url) as repository:
            with counted() as calls:
                stored = repository.get("d")
                assert not stored.stats.stale(stored.ldoc)
            assert calls == {}
            assert stored.stats.node_count == 9

    def test_a_restored_payload_that_disagrees_is_refreshed(self):
        ldoc = library()
        payload = StatsCollector.collect(ldoc).to_payload()
        ldoc.updates.append_child(ldoc.document.root, "annex")
        stored = StoredDocument("d", ldoc,
                                stats=StatsCollector.from_payload(payload))
        assert stored.stats.tag_counts["annex"] == 1
        assert not stored.stats.stale(ldoc)


class TestEstimation:
    def test_from_root_descendant_uses_exact_tag_population(self):
        stats = StatsCollector.collect(library())
        assert stats.estimate_step("descendant", "book", 1,
                                   from_root=True) == 3.0
        assert stats.estimate_step("descendant", "*", 1,
                                   from_root=True) == 9.0
        assert stats.estimate_step("descendant", "nothere", 1,
                                   from_root=True) == 0.0

    def test_structural_child_estimate_scales_with_context(self):
        stats = StatsCollector.collect(library())
        one = stats.estimate_step("child", "*", 1)
        three = stats.estimate_step("child", "*", 3)
        assert three == 3 * one > 0

    def test_learned_selectivity_overrides_structure(self):
        stats = StatsCollector.collect(library())
        structural = stats.estimate_step("child", "title", 3)
        stats.observe("child", "title", 3, 3)
        learned = stats.estimate_step("child", "title", 3)
        assert learned == 3.0
        assert learned != structural

    def test_observe_ignores_empty_contexts(self):
        stats = StatsCollector.collect(library())
        stats.observe("child", "title", 0, 5)
        assert stats.selectivities == {}


class TestPersistence:
    def test_payload_round_trip(self):
        stats = StatsCollector.collect(library())
        stats.observe("descendant", "book", 1, 3)
        payload = stats.to_payload()
        assert payload["schema_version"] == STATS_SCHEMA_VERSION
        restored = StatsCollector.from_payload(payload)
        assert restored.tag_counts == stats.tag_counts
        assert restored.depth_histogram == stats.depth_histogram
        assert restored.selectivities == stats.selectivities
        assert restored.estimate_step("descendant", "book", 1) == \
            stats.estimate_step("descendant", "book", 1)

    def test_from_payload_none_safe(self):
        assert StatsCollector.from_payload(None) is None
        assert StatsCollector.from_payload({}) is None

    def test_payload_is_json_clean(self):
        import json

        stats = StatsCollector.collect(library())
        stats.observe("child", "title", 3, 3)
        restored = StatsCollector.from_payload(
            json.loads(json.dumps(stats.to_payload())))
        assert restored.depth_histogram == stats.depth_histogram


class TestRendering:
    def test_render_mentions_counts_and_tags(self):
        stats = StatsCollector.collect(library())
        text = render_stats(stats)
        assert "9 labelled nodes" in text
        assert "book" in text
        assert "depth histogram" in text

    def test_render_lists_learned_selectivities(self):
        stats = StatsCollector.collect(library())
        stats.observe("child", "title", 3, 3)
        assert "child|title" in render_stats(stats)
