"""ComparisonCache: memoized compare/is_ancestor correctness and reuse."""

import gc
import weakref

import pytest

from conftest import labeled
from repro.data.sample import sample_document
from repro.observability.metrics import get_registry
from repro.schemes.cache import ComparisonCache, comparison_cache_for
from repro.schemes.registry import make_scheme
from repro.store.repository import open_repository


@pytest.fixture
def qed():
    return make_scheme("qed")


class TestCachedCompare:
    def test_matches_scheme_compare(self, qed):
        cache = ComparisonCache(qed)
        labels = qed.label_tree(sample_document())
        values = list(labels.values())
        for left in values:
            for right in values:
                assert cache.compare(left, right) == qed.compare(left, right)

    def test_second_call_hits(self, qed):
        cache = ComparisonCache(qed)
        hits = get_registry().counter("compare_cache.hits")
        before = hits.value
        cache.compare(("2",), ("3",))
        assert hits.value == before
        cache.compare(("2",), ("3",))
        assert hits.value == before + 1

    def test_reverse_pair_seeded_on_miss(self, qed):
        cache = ComparisonCache(qed)
        hits = get_registry().counter("compare_cache.hits")
        cache.compare(("2",), ("3",))
        before = hits.value
        assert cache.compare(("3",), ("2",)) == 1
        assert hits.value == before + 1

    def test_is_ancestor_matches_scheme(self, qed):
        cache = ComparisonCache(qed)
        parent = ("2",)
        child = ("2", "3")
        assert cache.is_ancestor(parent, child) is True
        assert cache.is_ancestor(child, parent) is False
        # Cached round agrees.
        assert cache.is_ancestor(parent, child) is True

    def test_unhashable_labels_bypass(self, qed):
        cache = ComparisonCache(qed)
        uncacheable = get_registry().counter("compare_cache.uncacheable")
        before = uncacheable.value
        assert cache.compare(["2"], ["3"]) == qed.compare(["2"], ["3"])
        assert uncacheable.value == before + 1


class TestEviction:
    def test_trim_keeps_cache_bounded(self, qed):
        """Regression: the mirrored (right, left) insert used to skip the
        trim check, letting the table exceed ``max_entries``; the bound
        is now strict."""
        cache = ComparisonCache(qed, max_entries=4)
        for index in range(20):
            cache.compare((str(index + 2),), ("3",))
            assert len(cache._compare) <= cache.max_entries

    def test_ancestor_table_also_bounded(self, qed):
        cache = ComparisonCache(qed, max_entries=3)
        for index in range(10):
            cache.is_ancestor(("2",), (str(index + 2), "2"))
            assert len(cache._ancestor) <= cache.max_entries

    def test_max_entries_below_mirrored_pair_rejected(self, qed):
        """compare() always stores both orientations of a pair, so a cap
        of 1 could never hold; it is rejected up front."""
        with pytest.raises(ValueError):
            ComparisonCache(qed, max_entries=1)

    def test_invalidate(self, qed):
        cache = ComparisonCache(qed)
        cache.compare(("2",), ("3",))
        cache.invalidate()
        assert len(cache._compare) == 0

    def test_trim_publishes_eviction_counters(self, qed):
        registry = get_registry()
        evictions = registry.counter("compare_cache.evictions")
        evicted = registry.counter("compare_cache.evicted_entries")
        before_evictions = evictions.value
        before_evicted = evicted.value
        cache = ComparisonCache(qed, max_entries=4)
        for index in range(8):
            cache.compare((str(index + 2),), ("3",))
        assert evictions.value > before_evictions
        # wholesale trim: each eviction drops a full table
        assert evicted.value - before_evicted >= cache.max_entries - 1

    def test_invalidate_is_not_an_eviction(self, qed):
        evictions = get_registry().counter("compare_cache.evictions")
        cache = ComparisonCache(qed)
        cache.compare(("2",), ("3",))
        before = evictions.value
        cache.invalidate()
        assert evictions.value == before

    def test_relabelling_invalidates_document_cache(self):
        """A state-mutating relabel must drop memoized comparisons: the
        old label values' orderings are meaningless afterwards."""
        ldoc = labeled(sample_document(), "dewey")
        cache = comparison_cache_for(ldoc.scheme)
        ldoc.verify_order()  # populate
        assert len(cache._compare) > 0
        first = ldoc.document.root.element_children()[0]
        # A Dewey front insertion shifts every follower: relabelling.
        ldoc.insert_before(first, "front")
        assert len(cache._compare) == 0

    def test_batch_relabel_pass_invalidates_cache(self):
        ldoc = labeled(sample_document(), "dewey")
        cache = comparison_cache_for(ldoc.scheme)
        ldoc.verify_order()
        with ldoc.batch() as batch:
            first = ldoc.document.root.element_children()[0]
            batch.insert_before(first, "front")
        assert len(cache._compare) == 0


class TestSharedCache:
    def test_one_cache_per_scheme_instance(self, qed):
        assert comparison_cache_for(qed) is comparison_cache_for(qed)
        other = make_scheme("qed")
        assert comparison_cache_for(other) is not comparison_cache_for(qed)

    def test_sort_key_orders_documents(self):
        ldoc = labeled(sample_document(), "dewey")
        in_order = ldoc.labels_in_document_order()
        shuffled = list(reversed(in_order))
        cache = comparison_cache_for(ldoc.scheme)
        assert sorted(shuffled, key=cache.sort_key()) == in_order

    def test_verify_order_uses_cache(self):
        ldoc = labeled(sample_document(), "vector")
        hits = get_registry().counter("compare_cache.hits")
        ldoc.verify_order()
        before = hits.value
        ldoc.verify_order()
        # The second verification replays the same label pairs.
        assert hits.value > before


def _live_caches():
    gc.collect()
    return sum(isinstance(obj, ComparisonCache) for obj in gc.get_objects())


class TestCacheLifetime:
    """The cache lives on its scheme: dropping the scheme frees both."""

    @pytest.mark.parametrize("use", [
        lambda cache: cache.compare(("2",), ("3",)),
        lambda cache: cache.is_ancestor(("2",), ("2", "3")),
        lambda cache: cache.invalidate(),
    ], ids=["compare", "is_ancestor", "invalidate"])
    def test_dropped_scheme_is_collected(self, use):
        scheme = make_scheme("qed")
        use(comparison_cache_for(scheme))
        dropped = weakref.ref(scheme)
        del scheme
        gc.collect()
        assert dropped() is None

    def test_dropped_schemes_leave_no_caches(self):
        before = _live_caches()
        for _ in range(5):
            comparison_cache_for(make_scheme("qed")).compare(("2",), ("3",))
        assert _live_caches() <= before

    def test_relabelling_does_not_create_a_cache(self):
        ldoc = labeled(sample_document(), "dewey")
        before = _live_caches()
        first = ldoc.document.root.element_children()[0]
        ldoc.updates.insert_before(first, "front")  # relabels the followers
        with ldoc.batch() as batch:
            batch.insert_before(first, "again")
        with pytest.raises(RuntimeError):
            with ldoc.transaction():
                ldoc.updates.insert_before(first, "undone")
                raise RuntimeError("roll back")
        ldoc.relabel_document()
        assert _live_caches() == before

    def test_reopened_documents_leave_at_most_one_cache(self, tmp_path):
        url = f"sqlite:///{tmp_path / 'catalog.db'}"
        with open_repository(url) as repository:
            repository.add("doc", sample_document(), scheme="qed")
        before = _live_caches()
        for _ in range(5):
            repository = open_repository(url)
            stored = repository.get("doc")
            assert stored.descendant_path(["book", "publisher", "name"])
            repository.close()
        del repository, stored
        assert _live_caches() - before <= 1
