"""Containment-family dynamics: XRel gaps, QRS precision, Sector budgets."""

import pytest

from conftest import labeled
from repro.data.sample import sample_document
from repro.schemes.containment.qrs import QRSScheme
from repro.schemes.containment.region import RegionScheme
from repro.schemes.containment.sector import SectorScheme
from repro.updates.workloads import skewed_insertions


class TestRegionGaps:
    def test_gaps_absorb_a_few_insertions(self, sample):
        ldoc = labeled(sample, "xrel", gap=16)
        anchor = sample.root.element_children()[-1]
        ldoc.updates.insert_before(anchor, "one")
        assert ldoc.log.relabel_events == 0

    def test_gap_exhaustion_forces_relabel(self, sample):
        # "these solutions ... only postpone the relabelling process
        # until the interval gaps have been consumed"
        ldoc = labeled(sample, "xrel", gap=8)
        result = skewed_insertions(ldoc, 30)
        assert result.relabel_events >= 1
        ldoc.verify_order()

    def test_larger_gaps_postpone_longer(self, sample):
        small = labeled(sample_document(), "xrel", gap=4)
        large = labeled(sample_document(), "xrel", gap=64)
        small_result = skewed_insertions(small, 40)
        large_result = skewed_insertions(large, 40)
        assert large_result.relabel_events <= small_result.relabel_events

    def test_interval_containment(self, sample):
        ldoc = labeled(sample, "xrel")
        nodes = {n.name: n for n in sample.labeled_nodes()}
        book = ldoc.label_of(nodes["book"])
        name = ldoc.label_of(nodes["name"])
        editor = ldoc.label_of(nodes["editor"])
        assert ldoc.scheme.is_ancestor(book, name)
        assert ldoc.scheme.is_parent(editor, name)
        assert not ldoc.scheme.is_ancestor(name, book)

    def test_invalid_gap_rejected(self):
        with pytest.raises(Exception):
            RegionScheme(gap=0)


class TestQRSPrecision:
    def test_midpoints_use_multiplication_not_division(self, sample):
        ldoc = labeled(sample, "qrs")
        anchor = sample.root.element_children()[-1]
        ldoc.updates.insert_before(anchor, "x")
        assert ldoc.scheme.instruments.divisions == 0
        assert ldoc.scheme.instruments.multiplications > 0

    def test_float_precision_exhausts(self, sample):
        # "in practice the solution is similar to an integer
        # representation ... and consequently suffers from the same
        # limitations" — doubles run out after ~50 halvings.
        ldoc = labeled(sample, "qrs")
        result = skewed_insertions(ldoc, 120)
        assert result.relabel_events >= 1
        ldoc.verify_order()

    def test_moderate_insertions_survive(self, sample):
        ldoc = labeled(sample, "qrs")
        result = skewed_insertions(ldoc, 20)
        assert result.relabel_events == 0


class TestSector:
    def test_hybrid_allocation_absorbs_one_insert_per_slot(self, sample):
        ldoc = labeled(sample, "sector")
        anchor = sample.root.element_children()[-1]
        ldoc.updates.insert_before(anchor, "one")
        assert ldoc.log.relabel_events == 0
        ldoc.updates.insert_before(anchor, "two")
        ldoc.verify_order()

    def test_budget_grows_for_wide_documents(self):
        from repro.xmlmodel.builder import wide_tree

        scheme = SectorScheme(unit=8)
        labels = scheme.label_tree(wide_tree(30))
        assert len(labels) == 31
        assert scheme.unit > 8  # the budget had to grow

    def test_deep_documents_force_budget_growth(self):
        from repro.xmlmodel.builder import chain_tree

        scheme = SectorScheme(unit=8, max_depth=4)
        labels = scheme.label_tree(chain_tree(9))
        assert len(labels) == 10

    def test_sector_containment(self, sample):
        ldoc = labeled(sample, "sector")
        nodes = {n.name: n for n in sample.labeled_nodes()}
        assert ldoc.scheme.is_ancestor(
            ldoc.label_of(nodes["book"]), ldoc.label_of(nodes["genre"])
        )
        assert not ldoc.scheme.is_ancestor(
            ldoc.label_of(nodes["title"]), ldoc.label_of(nodes["author"])
        )

    def test_skewed_insertions_eventually_relabel(self, sample):
        ldoc = labeled(sample, "sector")
        result = skewed_insertions(ldoc, 30)
        assert result.relabel_events >= 1
        ldoc.verify_order()
