"""Installing and removing the layer spans."""

import json
import os

from layers import ENTRY_POINTS, LayerTracer
from spans import SpanRecorder


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import repro
    import repro.store.repository as repository_module
    import repro.xmlmodel.parser as parser_module
    from repro.updates.results import UpdateSurface

    parse, surface_delete = parser_module.parse, UpdateSurface.delete
    tracer = LayerTracer(SpanRecorder())
    tracer.install(["qed"])
    try:
        assert parser_module.parse is not parse
        assert repository_module.parse is parser_module.parse
        assert UpdateSurface.delete is not surface_delete
        repro.parse("<a><b/></a>")
        assert tracer.recorder.names.count("xmlmodel.parse") == 1
        assert tracer.recorder.counts["xmlmodel.parse.nodes"] == 2
    finally:
        tracer.uninstall()
    assert parser_module.parse is parse
    assert repository_module.parse is parse
    assert UpdateSurface.delete is surface_delete


def test_every_span_has_a_declared_self_time_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {entry["name"]
                    for entry in json.load(handle)["per_layer"]}
    for span in ENTRY_POINTS:
        assert {f"{span}.self_s", f"{span}.wait_s"} & declared, span


def test_per_node_table_divides_layer_self_time_by_nodes_and_visits():
    import itertools

    from layers import per_node_table

    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)) * 1e-6)
    get = recorder.wrap("store.get", lambda: None)
    parse = recorder.wrap("xmlmodel.parse", lambda: None)
    for number, label in enumerate(["small", "large", "small"]):
        recorder.request = f"{number}:{label}"
        get()
        parse()
    recorder.request = "finish"
    get()
    table = per_node_table(recorder, [("small", 1, 2), ("large", 2, 1)])
    header, store_row, xmlmodel_row = table.splitlines()
    assert "1 nodes" in header and "2 nodes" in header
    # Each span lasts one tick (1 us): small has 2 visits x 1 node,
    # large 1 visit x 2 nodes.
    assert store_row.split()[1:] == ["1.000", "0.500"]
    assert xmlmodel_row.split()[0] == "xmlmodel"
