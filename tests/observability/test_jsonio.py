"""The shared JSON emitter, and the CLI surfaces that ride on it.

``metrics --json`` and ``lint --json`` both serialise through
:mod:`repro.observability.jsonio`; these tests pin the dialect (sorted
keys, two-space indent, no NaN, trailing newline) and that ``metrics
--json`` emits valid JSON even on an empty metric selection.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.observability.jsonio import dump_json, emit_json


class TestDumpJson:
    def test_round_trips(self):
        payload = {"b": [1, 2.5], "a": {"nested": None}, "c": "text"}
        assert json.loads(dump_json(payload)) == payload

    def test_keys_are_sorted(self):
        text = dump_json({"zeta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_nan_is_rejected_not_emitted(self):
        with pytest.raises(ValueError):
            dump_json({"value": float("nan")})

    def test_empty_object(self):
        assert dump_json({}) == "{}"


class TestEmitJson:
    def test_writes_to_stream_with_trailing_newline(self):
        stream = io.StringIO()
        emit_json({"a": 1}, stream)
        text = stream.getvalue()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1}

    def test_default_stream_is_stdout(self, capsys):
        emit_json({})
        assert capsys.readouterr().out == "{}\n"


class TestMetricsJson:
    def test_valid_json_with_measurements(self, capsys):
        assert main(["metrics", "--ops", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert all(isinstance(v, (int, float)) for v in payload.values())

    def test_empty_selection_is_still_valid_json(self, capsys):
        assert main(["metrics", "--ops", "5", "--json",
                     "--prefix", "no.such.prefix"]) == 0
        assert json.loads(capsys.readouterr().out) == {}
