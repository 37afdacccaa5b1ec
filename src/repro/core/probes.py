"""Empirical probes: one per graded Figure 7 property.

Each probe exercises a *fresh* scheme instance against documents and
update scenarios and returns a :class:`ProbeResult` with the measured
grade and the evidence behind it.  The probes are the paper's section
5.1 property definitions turned into experiments:

* **Persistence** — run the section 5.1 update scenarios (skewed,
  random, front-insertion, insert/delete churn) and count relabelled
  nodes.  Sixty skewed insertions are enough to exhaust XRel's gaps and
  QRS's double precision, and the churn scenario exposes LSDX's
  reassignment on deletion.
* **XPath / Level** — compare label-only answers against the tree
  oracle over every node pair of two differently-shaped documents.
* **Overflow** — rebuild the scheme with a deliberately tight storage
  field (section 4: the fixed bits "assigned to store the size of the
  code") and hammer one position; any relabel or overflow event is the
  overflow problem.  Self-delimiting schemes have no tight variant to
  build and sail through.
* **Orthogonality** — take the scheme's declared ordered-key strategy
  and prove it drives *both* the prefix and the containment skeletons
  through bulk labelling plus updates.
* **Division / Recursion** — read the instrumentation counters after
  bulk labelling and one insertion of each kind.
* **Compactness** — measure bulk storage and per-insert growth under
  the three workloads; the grade itself is the scheme's declared one
  (the single judgment column — see DESIGN.md), and the probe flags any
  measurement that contradicts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.axes.relationships import (
    Relationship,
    level_supported,
    supported_relationships,
)
from repro.core.properties import Compliance, Property
from repro.errors import ReproError
from repro.schemes.base import LabelingScheme
from repro.schemes.registry import make_scheme
from repro.strategies.base import strategy_by_name
from repro.strategies.skeletons import (
    StrategyContainmentScheme,
    StrategyPrefixScheme,
)
from repro.updates.document import LabeledDocument
from repro.updates.workloads import (
    append_insertions,
    churn,
    prepend_insertions,
    random_insertions,
    skewed_insertions,
    uniform_insertions,
)
from repro.xmlmodel.generator import random_document
from repro.xmlmodel.tree import Document

SchemeFactory = Callable[[], LabelingScheme]

#: Constructor overrides that shrink a scheme's fixed storage fields so
#: the overflow probe reaches them in a few hundred updates.  Schemes
#: absent here either have no fixed field (QED/CDQS/Vector/DDE — the
#: overflow-free designs) or fail by relabelling long before any field
#: limit matters (the containment family, DeweyID, Cohen, Prime).
TIGHT_STORAGE = {
    "improved-binary": {"length_field_bits": 5},
    "ordpath": {"max_magnitude": (1 << 8) - 1, "max_components": 8},
    "dln": {"subvalue_bits": 6, "max_sublevels": 4},
    "lsdx": {"length_field_bits": 5},
    "comd": {"length_field_bits": 5},
    "cdbs": {"length_field_bits": 4},
    "cohen": {"length_field_bits": 6},
    "dewey": {"component_bits": 8, "length_field_bits": 5},
}


@dataclass
class ProbeResult:
    """One probe's verdict plus its supporting measurements."""

    property: Property
    compliance: Compliance
    evidence: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.property.value}: {self.compliance.value} ({self.evidence})"


def _sample_document() -> Document:
    from repro.data.sample import sample_document

    return sample_document()


def _probe_document(nodes: int = 120, seed: int = 7) -> Document:
    return random_document(nodes, seed=seed)


def _fresh(factory_or_name) -> LabelingScheme:
    if callable(factory_or_name):
        return factory_or_name()
    return make_scheme(factory_or_name)


# ----------------------------------------------------------------------
# Persistent Labels
# ----------------------------------------------------------------------

def probe_persistence(factory: SchemeFactory) -> ProbeResult:
    """F iff no update scenario ever changes an existing label."""
    scenarios = {
        "skewed_60": lambda ldoc: skewed_insertions(ldoc, 60),
        "random_30": lambda ldoc: random_insertions(ldoc, 30, seed=3),
        "prepend_30": lambda ldoc: prepend_insertions(ldoc, 30),
        "churn_40": lambda ldoc: churn(ldoc, 40, seed=5),
    }
    evidence: Dict[str, Any] = {}
    total_relabeled = 0
    for name, scenario in scenarios.items():
        ldoc = LabeledDocument(
            _sample_document(), _fresh(factory), on_collision="record"
        )
        scenario(ldoc)
        evidence[name] = ldoc.log.relabeled_nodes
        total_relabeled += ldoc.log.relabeled_nodes
    compliance = Compliance.FULL if total_relabeled == 0 else Compliance.NONE
    return ProbeResult(Property.PERSISTENT_LABELS, compliance, evidence)


# ----------------------------------------------------------------------
# XPath Evaluations and Level Encoding
# ----------------------------------------------------------------------

def probe_xpath(factory: SchemeFactory) -> ProbeResult:
    """F = all three relationships label-decidable; P = at least
    ancestor-descendant; N = none."""
    supported = None
    for document in (_sample_document(), _probe_document(60)):
        answers = supported_relationships(_fresh(factory), document)
        supported = answers if supported is None else (supported & answers)
    evidence = {"relationships": sorted(item.value for item in supported)}
    if supported == set(Relationship):
        return ProbeResult(Property.XPATH_EVALUATION, Compliance.FULL, evidence)
    if Relationship.ANCESTOR_DESCENDANT in supported:
        return ProbeResult(Property.XPATH_EVALUATION, Compliance.PARTIAL, evidence)
    return ProbeResult(Property.XPATH_EVALUATION, Compliance.NONE, evidence)


def probe_level(factory: SchemeFactory) -> ProbeResult:
    """F iff the label alone yields the true nesting depth everywhere."""
    ok = all(
        level_supported(_fresh(factory), document)
        for document in (_sample_document(), _probe_document(60))
    )
    return ProbeResult(
        Property.LEVEL_ENCODING,
        Compliance.FULL if ok else Compliance.NONE,
        {"level_matches_depth": ok},
    )


# ----------------------------------------------------------------------
# Overflow Problem
# ----------------------------------------------------------------------

def probe_overflow(name: str, factory: Optional[SchemeFactory] = None,
                   pressure: int = 160) -> ProbeResult:
    """F iff unbounded one-position insertion never forces a relabel.

    The scheme is rebuilt with its tight storage configuration (if it
    has one) and driven through three one-sided scenarios.  Any relabel
    event — whether from an exhausted gap, a shifted sibling or an
    overflowed size field — means the overflow problem applies.
    """
    def tight() -> LabelingScheme:
        if factory is not None and name not in TIGHT_STORAGE:
            return factory()
        return make_scheme(name, **TIGHT_STORAGE.get(name, {}))

    evidence: Dict[str, Any] = {}
    relabels = 0
    overflows = 0
    for scenario_name, scenario in (
        ("skewed", lambda ldoc: skewed_insertions(ldoc, pressure)),
        ("prepend", lambda ldoc: prepend_insertions(ldoc, pressure)),
        ("append", lambda ldoc: append_insertions(ldoc, pressure)),
    ):
        ldoc = LabeledDocument(_sample_document(), tight(), on_collision="record")
        scenario(ldoc)
        evidence[scenario_name] = {
            "relabel_events": ldoc.log.relabel_events,
            "overflow_events": ldoc.log.overflow_events,
        }
        relabels += ldoc.log.relabel_events
        overflows += ldoc.log.overflow_events
    compliance = Compliance.FULL if relabels == 0 else Compliance.NONE
    evidence["total_relabel_events"] = relabels
    evidence["total_overflow_events"] = overflows
    return ProbeResult(Property.OVERFLOW_FREEDOM, compliance, evidence)


# ----------------------------------------------------------------------
# Orthogonality
# ----------------------------------------------------------------------

def probe_orthogonality(scheme: LabelingScheme) -> ProbeResult:
    """F iff the scheme's key mechanism drives both skeleton families.

    The probe instantiates the declared ordered-key strategy inside the
    prefix skeleton and the containment skeleton, bulk-labels a test
    document with each, verifies order and ancestorship against the
    tree oracle, then pushes updates through both without a relabel.
    """
    strategy_name = scheme.metadata.orthogonal_strategy
    if strategy_name is None:
        return ProbeResult(
            Property.ORTHOGONALITY, Compliance.NONE,
            {"reason": "no reusable ordered-key strategy"},
        )
    families: Dict[str, bool] = {}
    for family, skeleton_class in (
        ("prefix", StrategyPrefixScheme),
        ("containment", StrategyContainmentScheme),
    ):
        try:
            skeleton = skeleton_class(strategy_by_name(strategy_name))
            ldoc = LabeledDocument(_probe_document(50, seed=11), skeleton)
            ldoc.verify_order()
            _check_ancestors(ldoc)
            skewed_insertions(ldoc, 20)
            random_insertions(ldoc, 15, seed=2)
            ldoc.verify_order()
            families[family] = ldoc.log.relabeled_nodes == 0
        except ReproError as error:
            families[family] = False
            families[family + "_error"] = str(error)
    passed = families.get("prefix") and families.get("containment")
    return ProbeResult(
        Property.ORTHOGONALITY,
        Compliance.FULL if passed else Compliance.NONE,
        {"strategy": strategy_name, **families},
    )


def _check_ancestors(ldoc: LabeledDocument) -> None:
    nodes = list(ldoc.document.labeled_nodes())
    for first in nodes:
        for second in nodes:
            if first is second:
                continue
            expected = first.is_ancestor_of(second)
            actual = ldoc.scheme.is_ancestor(
                ldoc.label_of(first), ldoc.label_of(second)
            )
            if expected != actual:
                raise ReproError(
                    f"{ldoc.scheme.metadata.name} ancestor mismatch"
                )


# ----------------------------------------------------------------------
# Division and Recursion
# ----------------------------------------------------------------------

def _exercise_for_counters(scheme: LabelingScheme) -> LabeledDocument:
    """Bulk labelling plus one insertion of each kind.

    The front/back nodes guarantee the middle insertion really lands
    between two siblings, so careting-style midpoint computations (the
    ORDPATH divisions) always execute.
    """
    ldoc = LabeledDocument(_probe_document(80, seed=13), scheme,
                           on_collision="record")
    root = ldoc.document.root
    front = ldoc.updates.prepend_child(root, "front").node
    ldoc.updates.append_child(root, "back")
    ldoc.updates.insert_after(front, "mid")
    return ldoc


def probe_division(factory: SchemeFactory) -> ProbeResult:
    """F iff no division during bulk labelling or any insertion kind."""
    scheme = _fresh(factory)
    scheme.instruments.reset()
    _exercise_for_counters(scheme)
    divisions = scheme.instruments.divisions
    return ProbeResult(
        Property.DIVISION_FREEDOM,
        Compliance.FULL if divisions == 0 else Compliance.NONE,
        {"divisions": divisions,
         "multiplications": scheme.instruments.multiplications},
    )


def probe_recursion(factory: SchemeFactory) -> ProbeResult:
    """F iff bulk labelling runs without a recursive helper."""
    scheme = _fresh(factory)
    scheme.instruments.reset()
    scheme.label_tree(_probe_document(80, seed=13))
    recursions = scheme.instruments.recursions
    return ProbeResult(
        Property.RECURSION_FREEDOM,
        Compliance.FULL if recursions == 0 else Compliance.NONE,
        {"recursive_calls": recursions,
         "max_depth": scheme.instruments.max_recursion_depth},
    )


# ----------------------------------------------------------------------
# Compact Encoding
# ----------------------------------------------------------------------

def probe_compactness(factory: SchemeFactory,
                      declared: Compliance) -> ProbeResult:
    """Report the declared grade with measured growth evidence.

    Compact Encoding is Figure 7's judgment column (storage-architecture
    reasoning rather than a single measurable); the probe contributes
    the measurements — bulk bits per label, per-insert growth under the
    three section 5.1 workloads — and checks the necessary conditions an
    F grade implies: bounded skewed growth (strictly sublinear frontier)
    and no runaway bulk storage.  A contradiction is reported in the
    evidence and surfaces in the matrix diff.
    """
    scheme = _fresh(factory)
    bulk_doc = _probe_document(300, seed=17)
    ldoc = LabeledDocument(bulk_doc, scheme, on_collision="record")
    labeled = max(1, bulk_doc.labeled_size())
    bulk_bits = ldoc.total_label_bits() / labeled

    def growth(scenario) -> float:
        fresh = LabeledDocument(
            _sample_document(), _fresh(factory), on_collision="record"
        )
        result = scenario(fresh)
        return result.bits_per_insert

    skewed_rate = growth(lambda d: skewed_insertions(d, 120))
    random_rate = growth(lambda d: random_insertions(d, 120, seed=23))
    uniform_rate = growth(lambda d: uniform_insertions(d, 120))

    # Frontier growth: size of the final label in a long skewed run,
    # versus the run length — the vector-vs-QED comparison of section 5.
    frontier = LabeledDocument(
        _sample_document(), _fresh(factory), on_collision="record"
    )
    frontier_result = skewed_insertions(frontier, 240)
    frontier_bits = frontier_result.final_insert_bits

    evidence = {
        "bulk_bits_per_label": round(bulk_bits, 1),
        "skewed_bits_per_insert": round(skewed_rate, 1),
        "random_bits_per_insert": round(random_rate, 1),
        "uniform_bits_per_insert": round(uniform_rate, 1),
        "skewed_frontier_bits_after_240": frontier_bits,
    }
    if declared is Compliance.FULL:
        # Necessary conditions for an F grade: storage stays near
        # machine-word scale in bulk and under the random and uniform
        # section 5.1 workloads.  (Skewed-frontier asymptotics separate
        # Vector from QED but are not what the F grade asserts — the
        # paper grades CDQS F while noting every *string* scheme's
        # prefix labels grow under fixed-position insertion; the
        # cross-scheme ordering is checked by the growth benchmark.)
        consistent = (
            bulk_bits <= 192
            and random_rate <= max(64.0, 2.0 * bulk_bits)
            and uniform_rate <= max(64.0, 2.0 * bulk_bits)
        )
        evidence["consistent_with_declared"] = consistent
    else:
        evidence["consistent_with_declared"] = True
    return ProbeResult(Property.COMPACT_ENCODING, declared, evidence)
