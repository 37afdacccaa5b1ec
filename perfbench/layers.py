"""Wrap each runtime layer's public entry points in spans (traced runs).

Nothing under ``src/`` changes: :class:`LayerTracer` replaces the entry
points listed in :data:`ENTRY_POINTS` -- class methods on their class,
module functions in their module *and* in every ``repro`` module that
imported them by name -- with :meth:`SpanRecorder.wrap` wrappers, and
puts the originals back on :meth:`LayerTracer.uninstall`.  Counts come
from the wrapped calls' arguments and results and from deltas of the
program's own ``get_registry()`` counters.

``AxisAccelerator.evaluate`` is deliberately not wrapped: it only ever
runs inside ``AxisEvaluator.evaluate`` (``axes.step``), and its lazy
rebuild is ``AxisAccelerator.refresh`` (``axes.accel_build``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from spans import HOOK, SpanRecorder

#: Span name -> entry points, as ``module:Class.method`` or
#: ``module:function``.  ``schemes.*`` entries name the method only;
#: they are patched on each scheme class in use.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "xmlmodel.parse": ("repro.xmlmodel.parser:parse",),
    "xmlmodel.serialize": ("repro.xmlmodel.serializer:serialize",),
    "schemes.label_tree": ("label_tree",),
    "schemes.insert": ("insert_sibling", "plan_insert"),
    "encoding.encode": ("repro.encoding.codec:LabelStreamCodec.encode_labels",),
    "encoding.decode": ("repro.encoding.codec:LabelStreamCodec.decode_labels",),
    "updates.op": tuple(
        f"repro.updates.{module}:{cls}.{method}"
        for module, cls in (("results", "UpdateSurface"),
                            ("batch", "UpdateBatch"))
        for method in ("insert_before", "insert_after", "append_child",
                       "prepend_child", "insert_attribute", "insert_subtree",
                       "delete", "move", "set_text", "set_attribute_value",
                       "rename")
    ),
    "updates.locate": ("repro.updates.operations:element_position",
                       "repro.updates.operations:dispatch_operation"),
    "updates.batch_apply": ("repro.updates.batch:UpdateBatch.apply",),
    "durability.begin": ("repro.durability.transactions:UndoRecord.__init__",),
    "durability.commit": ("repro.durability.transactions:Transaction.commit",
                          "repro.durability.journal:Journal.commit"),
    "durability.rollback": (
        "repro.durability.transactions:Transaction.rollback",),
    "durability.journal_append": ("repro.durability.journal:Journal.append",),
    "durability.recover": ("repro.durability.journal:recover",),
    "durability.fsync": ("os:fsync",),
    "store.put": ("repro.store.backends.base:StorageBackend.put",),
    "store.get": ("repro.store.backends.base:StorageBackend.get",),
    "store.point_query": (
        "repro.store.backends.base:StorageBackend.point_query",),
    "store.snapshot": ("repro.store.repository:StoredDocument.snapshot",),
    "store.join": ("repro.store.joins:path_join",),
    "store.index_refresh": ("repro.store.indexes:DocumentIndexes.refresh",),
    "axes.xpath": ("repro.axes.xpath:XPathEvaluator.evaluate",),
    "axes.parse": ("repro.axes.xpath_ast:parse_path",),
    "axes.step": ("repro.axes.evaluator:AxisEvaluator.evaluate",),
    "axes.accel_build": ("repro.axes.accelerator:AxisAccelerator.refresh",),
    "axes.accel_splice": (
        "repro.axes.accelerator:AxisAccelerator.apply_delta",),
    "ulang.parse": ("repro.ulang.parser:parse_program",),
    "ulang.analyze": ("repro.ulang.analysis:analyze_program",),
    "ulang.execute": ("repro.ulang.compiler:run_program",),
    "ulang.resolve": ("repro.ulang.compiler:resolve_targets",),
    "observability.stats": (
        "repro.observability.stats:StatsCollector.collect",
        "repro.observability.stats:StatsCollector.refresh"),
}

#: Program counters whose change over the traced run feeds a metric.
REGISTRY_COUNTERS = (
    "updates.insertions", "updates.relabeled_nodes",
    "compare_cache.hits", "compare_cache.misses",
    "durability.rollbacks", "batch.rollbacks",
    "durability.recover.records_replayed",
    "axes.accelerator.stale_errors", "ulang.statements",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class LayerTracer:
    """Installs the span wrappers and derives the per-layer metrics."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []
        self._baseline: Dict[str, int] = {}
        #: Labelled nodes the loop inserted, relabelled or detached since
        #: the last ``StorageBackend.put``.
        self._changed = 0

    # -- installing ------------------------------------------------------

    def install(self, scheme_names: Sequence[str]) -> None:
        from repro.observability.metrics import get_registry
        from repro.schemes.registry import make_scheme

        # Load every module that binds an entry point by name first: a
        # module imported after patching would keep the wrapper for good.
        importlib.import_module("repro.ulang")
        registry = get_registry()
        self._baseline = {name: registry.counter(name).value
                          for name in REGISTRY_COUNTERS}
        hooks = self._hooks()
        for span, targets in ENTRY_POINTS.items():
            make = self._wrapper(span, *hooks.get(span, (None, None)))
            for target in targets:
                if ":" not in target:
                    for scheme_name in scheme_names:
                        owner = _defining_class(type(make_scheme(scheme_name)),
                                                target)
                        self._patch_attribute(owner, target, make)
                    continue
                module_name, path = target.split(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    owner_name, attr = path.split(".")
                    self._patch_attribute(getattr(module, owner_name), attr,
                                          make)
                elif module_name == "os":
                    self._patch_attribute(module, path, make)
                else:
                    self._patch_function(module, path, make)

    def _wrapper(self, span: str, before, after) -> Callable:
        def make(function: Callable) -> Callable:
            return self.recorder.wrap(span, function, before=before,
                                      after=after)
        return make

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_attribute(self, owner, attr: str, make: Callable) -> None:
        raw = vars(owner)[attr]
        if any(o is owner and a == attr for o, a, _ in self._undo):
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def _patch_function(self, module, attr: str, make: Callable) -> None:
        original = getattr(module, attr)
        replacement = make(original)
        for candidate in _repro_modules():
            for key, value in list(vars(candidate).items()):
                if value is original:
                    setattr(candidate, key, replacement)
                    self._undo.append((candidate, key, original))

    # -- counting hooks ----------------------------------------------------

    def _hooks(self) -> Dict[str, Tuple[Callable, Callable]]:
        from repro.updates.results import UpdateSurface

        counts = self.recorder.counts
        recorder = self.recorder

        def parsed(_index, _args, document, _state):
            counts["xmlmodel.parse.nodes"] += document.labeled_size()

        def encoded(_index, args, _result, _state):
            counts["encoding.encode.labels"] += len(args[1])

        def decoded(_index, _args, labels, _state):
            counts["encoding.decode.labels"] += len(labels)

        def in_loop() -> bool:
            # Loop requests are "<number>:<label>"; set-up and the checks
            # after the loop (recovery replay, reloads) are not.
            return ":" in recorder.request

        def operated(index, args, result, _state):
            # Batch operations return deferred results; their labelling
            # cost is counted once, from the BatchResult at apply.
            if not isinstance(args[0], UpdateSurface) or result is None:
                return
            written = result.labels_assigned + result.relabeled_nodes
            counts["updates.labels_written"] += written
            counts["updates.ops_written"] += 1
            if in_loop():
                self._changed += written + result.nodes_detached

        def applied(_index, _args, result, _state):
            written = result.labels_assigned + result.relabeled_nodes
            counts["updates.labels_written"] += written
            counts["updates.ops_written"] += result.operations
            if in_loop():
                self._changed += written + sum(
                    part.nodes_detached for part in result.results)

        def before_put(args):
            backend = args[0]
            # The sqlite backend's connection (no public accessor); its
            # total_changes counts the rows a put writes.
            connection = getattr(backend, "_conn", None)
            rows = connection.total_changes if connection is not None else 0
            return rows, backend.storage_bytes()

        def after_put(_index, args, _result, state):
            backend = args[0]
            rows_before, bytes_before = state
            if self._changed and in_loop():
                connection = getattr(backend, "_conn", None)
                if connection is not None:
                    counts["store.put.rows"] += (connection.total_changes
                                                 - rows_before)
                    counts["store.put.row_changed_nodes"] += self._changed
                counts["store.put.bytes"] += (backend.storage_bytes()
                                              - bytes_before)
                counts["store.put.changed_nodes"] += self._changed
            self._changed = 0

        def evaluated(index, _args, nodes, _state):
            if recorder.parent_name(index) != "axes.xpath":
                counts["axes.xpath.results"] += len(nodes)

        def stepped(_index, _args, nodes, _state):
            counts["axes.step.rows"] += len(nodes)

        return {
            "xmlmodel.parse": (None, parsed),
            "encoding.encode": (None, encoded),
            "encoding.decode": (None, decoded),
            "updates.op": (None, operated),
            "updates.batch_apply": (None, applied),
            "store.put": (before_put, after_put),
            "axes.xpath": (None, evaluated),
            "axes.step": (None, stepped),
        }

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float, overhead_frac: float) -> Dict[str, float]:
        """Every per-layer metric of the traced run, by name."""
        from repro.observability.metrics import get_registry

        registry = get_registry()
        delta = {name: registry.counter(name).value - self._baseline[name]
                 for name in REGISTRY_COUNTERS}
        totals = self.recorder.totals()
        unknown = sorted(name for name in totals
                         if name not in ENTRY_POINTS and name != HOOK)
        if unknown:
            raise RuntimeError(f"spans without a metric: {unknown}")
        counts = self.recorder.counts

        def calls(name):
            return float(totals.get(name, (0, 0.0))[0])

        def own(name):
            return totals.get(name, (0, 0.0))[1]

        lookups = delta["compare_cache.hits"] + delta["compare_cache.misses"]
        values = {
            "xmlmodel.parse.calls": calls("xmlmodel.parse"),
            "xmlmodel.parse.self_s": own("xmlmodel.parse"),
            "xmlmodel.parse.us_per_node": 1e6 * _ratio(
                own("xmlmodel.parse"), counts["xmlmodel.parse.nodes"]),
            "xmlmodel.serialize.self_s": own("xmlmodel.serialize"),
            "schemes.label_tree.calls": calls("schemes.label_tree"),
            "schemes.label_tree.self_s": own("schemes.label_tree"),
            "schemes.insert.calls": calls("schemes.insert"),
            "schemes.insert.self_s": own("schemes.insert"),
            "schemes.relabeled_per_insert": _ratio(
                delta["updates.relabeled_nodes"], delta["updates.insertions"]),
            "schemes.compare_cache.lookups": float(lookups),
            "schemes.compare_cache.hit_ratio": _ratio(
                delta["compare_cache.hits"], lookups),
            "encoding.encode.labels": counts["encoding.encode.labels"],
            "encoding.encode.self_s": own("encoding.encode"),
            "encoding.decode.labels": counts["encoding.decode.labels"],
            "encoding.decode.self_s": own("encoding.decode"),
            "updates.op.calls": calls("updates.op"),
            "updates.op.self_s": own("updates.op"),
            "updates.locate.calls": calls("updates.locate"),
            "updates.locate.self_s": own("updates.locate"),
            "updates.batch_apply.calls": calls("updates.batch_apply"),
            "updates.batch_apply.self_s": own("updates.batch_apply"),
            "updates.labels_written_per_op": _ratio(
                counts["updates.labels_written"],
                counts["updates.ops_written"]),
            "durability.begin.calls": calls("durability.begin"),
            "durability.begin.self_s": own("durability.begin"),
            "durability.journal_append.calls": calls(
                "durability.journal_append"),
            "durability.journal_append.self_s": own(
                "durability.journal_append"),
            "durability.commit.self_s": own("durability.commit"),
            "durability.rollback.self_s": own("durability.rollback"),
            "durability.fsync.calls": calls("durability.fsync"),
            "durability.fsync.wait_s": own("durability.fsync"),
            "durability.recover.ops": float(
                delta["durability.recover.records_replayed"]),
            "durability.recover.self_s": own("durability.recover"),
            "durability.rollbacks": float(delta["durability.rollbacks"]
                                          + delta["batch.rollbacks"]),
            "store.put.calls": calls("store.put"),
            "store.put.self_s": own("store.put"),
            "store.snapshot.self_s": own("store.snapshot"),
            "store.put.rows_per_changed_node": _ratio(
                counts["store.put.rows"],
                counts["store.put.row_changed_nodes"]),
            "store.put.bytes_per_changed_node": _ratio(
                counts["store.put.bytes"], counts["store.put.changed_nodes"]),
            "store.get.calls": calls("store.get"),
            "store.get.self_s": own("store.get"),
            "store.point_query.calls": calls("store.point_query"),
            "store.point_query.self_s": own("store.point_query"),
            "store.join.calls": calls("store.join"),
            "store.join.self_s": own("store.join"),
            "store.index_refresh.self_s": own("store.index_refresh"),
            "axes.xpath.calls": calls("axes.xpath"),
            "axes.xpath.self_s": own("axes.xpath"),
            "axes.parse.self_s": own("axes.parse"),
            "axes.step.calls": calls("axes.step"),
            "axes.step.self_s": own("axes.step"),
            "axes.rows_per_result": _ratio(counts["axes.step.rows"],
                                           counts["axes.xpath.results"]),
            "axes.accel_build.calls": calls("axes.accel_build"),
            "axes.accel_build.self_s": own("axes.accel_build"),
            "axes.accel_splice.calls": calls("axes.accel_splice"),
            "axes.accel_splice.self_s": own("axes.accel_splice"),
            "axes.stale_errors": float(
                delta["axes.accelerator.stale_errors"]),
            "ulang.statements": float(delta["ulang.statements"]),
            "ulang.parse.self_s": own("ulang.parse"),
            "ulang.analyze.self_s": own("ulang.analyze"),
            "ulang.execute.self_s": own("ulang.execute"),
            "ulang.resolve.self_s": own("ulang.resolve"),
            "observability.stats.calls": calls("observability.stats"),
            "observability.stats.self_s": own("observability.stats"),
            "observability.trace_overhead_frac": overhead_frac,
        }
        layer_self = sum(seconds for name, (_calls, seconds) in totals.items()
                         if name != HOOK)
        values["bench.traced_wall_s"] = wall_s
        values["bench.unattributed_s"] = wall_s - layer_self
        return values


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr!r}")


def per_node_table(recorder: SpanRecorder,
                   documents: Sequence[Tuple[str, int, int]]) -> str:
    """Each layer's self time per labelled node, one column per document.

    ``documents`` holds ``(label, labelled nodes, visits)``; spans are
    matched to a document by the label part of the request identifier
    (``"<number>:<label>"``) they were recorded under.  Values are
    microseconds per node per visit.
    """
    by_layer: Dict[Tuple[str, str], float] = {}
    for (name, request), seconds in recorder.self_by_request().items():
        if name == HOOK:
            continue
        key = (name.split(".", 1)[0], request.split(":", 1)[-1])
        by_layer[key] = by_layer.get(key, 0.0) + seconds
    layers = sorted({layer for layer, _request in by_layer})
    header = "  layer        " + "".join(
        f"{f'{nodes} nodes':>14}" for _request, nodes, _visits in documents)
    lines = [header]
    for layer in layers:
        cells = "".join(
            f"{1e6 * by_layer.get((layer, request), 0.0) / (nodes * visits):14.3f}"
            for request, nodes, visits in documents)
        lines.append(f"  {layer:<13}{cells}")
    return "\n".join(lines)
