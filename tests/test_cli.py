"""Command-line interface tests (invoked in-process via main())."""

import pytest

from repro.cli import main
from repro.data.sample import SAMPLE_XML


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.xml"
    path.write_text(SAMPLE_XML, encoding="utf-8")
    return str(path)


class TestSchemes:
    def test_lists_all_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("prepost", "qed", "cdqs", "vector", "prime"):
            assert name in out
        assert "extension scheme" in out


class TestLabel:
    def test_labels_a_file(self, sample_file, capsys):
        assert main(["label", sample_file, "--scheme", "qed"]) == 0
        out = capsys.readouterr().out
        assert "<>book" in out
        assert "@genre" in out
        assert "bits/label" in out

    def test_dewey_rendering(self, sample_file, capsys):
        assert main(["label", sample_file, "--scheme", "dewey"]) == 0
        assert "1.1.1" in capsys.readouterr().out

    def test_missing_file_fails(self, capsys):
        assert main(["label", "/nonexistent.xml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_xml_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>", encoding="utf-8")
        assert main(["label", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTable:
    def test_prints_figure2_style_table(self, sample_file, capsys):
        assert main(["table", sample_file]) == 0
        out = capsys.readouterr().out
        assert "Node Type" in out
        assert "Wayfarer" in out


class TestQuery:
    def test_query_elements(self, sample_file, capsys):
        assert main(["query", sample_file, "//editor/name"]) == 0
        out = capsys.readouterr().out
        assert "<name>" in out
        assert "1 node(s)" in out

    def test_query_attributes(self, sample_file, capsys):
        assert main(["query", sample_file, "//title/@genre"]) == 0
        assert "@genre='Fantasy'" in capsys.readouterr().out

    def test_bad_path_fails(self, sample_file, capsys):
        assert main(["query", sample_file, "?what"]) == 1


class TestMatrix:
    def test_matrix_reproduces(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "All 120 cells agree" in out
        assert "most generic scheme (section 5.2): cdqs" in out


class TestFigure:
    @pytest.mark.parametrize("number", ["1", "3", "4", "5", "6"])
    def test_figures_print_and_match(self, number, capsys):
        assert main(["figure", number]) == 0
        assert "matches paper: True" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "matches paper: True" in capsys.readouterr().out


class TestReport:
    @pytest.mark.parametrize("kind, count, shown, other", [
        ("figure", 7, "All 120 cells agree", "claim"),
        ("claim", 6, "bench_claim_overflow", "figure"),
    ], ids=["figure", "claim"])
    def test_reports_only_one_kind(self, kind, count, shown, other, capsys):
        assert main(["report", kind]) == 0
        out = capsys.readouterr().out
        assert shown in out
        assert f"({other})" not in out
        assert f"regenerated {count} reports" in out

    def test_unknown_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "everything"])

    def test_failed_section_fails_the_run_and_is_named(self, monkeypatch,
                                                       capsys):
        from repro.cli import _run_all_module

        monkeypatch.setattr(_run_all_module(), "SECTIONS", [
            ("figure", "no_such_bench_module"),
            ("figure", "bench_figure1_prepost"),
        ])
        assert main(["report"]) == 1
        out = capsys.readouterr().out
        # the sections after the failure still run
        assert "matches paper: True" in out
        assert "regenerated 2 reports" in out
        assert "1 section(s) FAILED: no_such_bench_module" in out

    def test_failed_section_is_recorded_not_raised(self):
        from repro.cli import _run_all_module

        failure = _run_all_module().run_section("no_such_bench_module", [])
        assert failure["section"] == "no_such_bench_module"
        assert failure["type"] == "ModuleNotFoundError"
        assert failure["traceback_tail"]


class TestGrowth:
    def test_growth_series(self, capsys):
        assert main([
            "growth", "--schemes", "qed,vector", "--inserts", "80",
            "--step", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "inserts" in out
        assert "bits/insert" in out


class TestSuggest:
    def test_lists_requirements_when_empty(self, capsys):
        assert main(["suggest"]) == 0
        assert "version-control" in capsys.readouterr().out

    def test_suggests_cdqs_for_the_works(self, capsys):
        assert main([
            "suggest", "version-control", "large-documents", "compact",
        ]) == 0
        assert "cdqs" in capsys.readouterr().out

    def test_unsatisfiable(self, capsys):
        # No Figure 7 row has F for everything.
        assert main([
            "suggest", "no-division", "no-recursion", "large-documents",
        ]) == 1


class TestJournal:
    @pytest.fixture
    def journal_file(self, tmp_path):
        from repro.durability.journal import Journal
        from repro.schemes.registry import make_scheme
        from repro.updates.document import LabeledDocument
        from repro.xmlmodel.parser import parse

        ldoc = LabeledDocument(parse(SAMPLE_XML), make_scheme("cdqs"))
        path = tmp_path / "doc.journal"
        with Journal.create(path, ldoc, name="sample") as journal:
            with ldoc.transaction(journal=journal) as txn:
                txn.append_child(ldoc.document.root, "annex")
        return str(path)

    def test_inspect_lists_records(self, journal_file, capsys):
        assert main(["journal", "inspect", journal_file]) == 0
        out = capsys.readouterr().out
        assert "base" in out
        assert "commit" in out
        assert "append-child" in out

    def test_replay_recovers_and_verifies(self, journal_file, capsys):
        assert main(["journal", "replay", journal_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "1 transaction(s)" in out
        assert "verify: document order decided" in out
        assert "<annex/>" in out

    def test_missing_journal_fails(self, capsys):
        assert main(["journal", "inspect", "/nonexistent.journal"]) == 1


class TestStoreCommand:
    @pytest.fixture
    def library_file(self, tmp_path):
        path = tmp_path / "library.xml"
        path.write_text(
            "<library><shelf><book><title>Dune</title></book>"
            "<book><title>Neuromancer</title></book></shelf></library>"
        )
        return str(path)

    @pytest.fixture
    def store_url(self, tmp_path):
        return f"sqlite:///{tmp_path}/store.db"

    def test_ingest_ls_round_trip(self, store_url, library_file, capsys):
        assert main(["store", "ingest", store_url, "library",
                     library_file, "--scheme", "cdqs"]) == 0
        out = capsys.readouterr().out
        assert "ingested 'library'" in out
        assert main(["store", "ls", store_url]) == 0
        out = capsys.readouterr().out
        assert "library" in out
        assert "scheme=cdqs" in out
        assert "(sqlite)" in out

    def test_point_query_across_processes(self, store_url, library_file,
                                          capsys):
        assert main(["store", "ingest", store_url, "library",
                     library_file]) == 0
        capsys.readouterr()
        # A fresh invocation = a fresh connection: the query is served
        # from the node table, not from anything in this process.
        assert main(["store", "query", store_url, "library", "title"]) == 0
        out = capsys.readouterr().out
        assert "'Dune'" in out
        assert "'Neuromancer'" in out
        assert "2 node(s)" in out

    def test_get_and_rm(self, store_url, library_file, capsys):
        main(["store", "ingest", store_url, "doc", library_file])
        capsys.readouterr()
        assert main(["store", "get", store_url, "doc", "--xml"]) == 0
        assert "<title>Dune</title>" in capsys.readouterr().out
        assert main(["store", "rm", store_url, "doc"]) == 0
        capsys.readouterr()
        assert main(["store", "get", store_url, "doc"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_pagefile_backend_via_cli(self, tmp_path, library_file, capsys):
        url = f"pagefile:///{tmp_path}/store.pages"
        assert main(["store", "ingest", url, "doc", library_file]) == 0
        capsys.readouterr()
        assert main(["store", "ls", url]) == 0
        assert "(pagefile)" in capsys.readouterr().out

    def test_unknown_url_scheme_fails(self, capsys):
        assert main(["store", "ls", "gopher://hole"]) == 1
        assert "unknown storage scheme" in capsys.readouterr().err


class TestMetricsCommand:
    def test_synthetic_workload_prints_metrics(self, capsys):
        assert main(["metrics", "--scheme", "qed", "--ops", "20"]) == 0
        out = capsys.readouterr().out
        assert "updates.insertions" in out

    def test_json_output_is_parseable_and_sorted(self, capsys):
        import json as json_module

        assert main(["metrics", "--scheme", "qed", "--ops", "20",
                     "--json"]) == 0
        values = json_module.loads(capsys.readouterr().out)
        assert values.get("updates.insertions", 0) > 0
        assert list(values) == sorted(values)

    def test_prefix_filter_applies_to_json(self, capsys):
        import json as json_module

        assert main(["metrics", "--scheme", "qed", "--ops", "20",
                     "--json", "--prefix", "updates."]) == 0
        values = json_module.loads(capsys.readouterr().out)
        assert values
        assert all(name.startswith("updates.") for name in values)


class TestTraceCommand:
    def test_span_tree_and_summary(self, capsys):
        assert main(["trace", "--scheme", "dewey", "--ops", "40"]) == 0
        out = capsys.readouterr().out
        assert "document.insert" in out
        assert "scheme=dewey" in out
        assert "cumulative" in out  # tree header
        assert "count" in out  # summary table header

    def test_ordpath_overflow_produces_relabel_spans(self, capsys):
        assert main(["trace", "--scheme", "ordpath", "--ops", "200"]) == 0
        out = capsys.readouterr().out
        assert "document.relabel" in out
        assert "scheme=ordpath" in out
        assert "overflow=True" in out

    def test_export_round_trips(self, tmp_path, capsys):
        from repro.observability.tracing import load_trace

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "--scheme", "qed", "--ops", "30",
                     "--export", str(target)]) == 0
        roots = load_trace(target)
        assert roots
        assert any(r.name == "document.insert" for r in roots)

    def test_batch_mode_emits_batch_spans(self, capsys):
        assert main(["trace", "--scheme", "qed", "--ops", "30",
                     "--batch"]) == 0
        assert "batch.apply" in capsys.readouterr().out

    def test_sampling_keeps_a_subset(self, capsys):
        assert main(["trace", "--scheme", "qed", "--ops", "40",
                     "--sample", "0.25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out

    def test_file_workload(self, sample_file, capsys):
        assert main(["trace", sample_file, "--scheme", "dewey",
                     "--ops", "20"]) == 0
        assert "document.insert" in capsys.readouterr().out

    def test_tracer_left_disabled_after_run(self):
        from repro.observability.tracing import get_tracer

        assert main(["trace", "--scheme", "qed", "--ops", "10"]) == 0
        assert get_tracer().enabled is False
        assert get_tracer().exporters == []


class TestLint:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "static verdicts over 17 schemes" in out
        assert "division: cdqs, improved-binary, ordpath, qed" in out
        assert "recursion: cdqs, improved-binary, qed, sector, vector" in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["lint", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["summary"]["exit_code"] == 0
        assert len(payload["schemes"]) == 17
        assert payload["schemes"]["qed"]["uses_division"] is True
        assert payload["schemes"]["dewey"]["uses_division"] is False

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP008", "REP100"):
            assert rule_id in out

    def test_select_and_ignore(self, capsys):
        assert main(["lint", "--select", "REP003,REP008"]) == 0
        assert main(["lint", "--fast", "--ignore", "REP002"]) == 0


@pytest.fixture
def restore_oplog():
    """health/top/serve-metrics flip the global op-log on; put it back."""
    from repro.observability.ops import get_oplog

    oplog = get_oplog()
    saved = (oplog.enabled, oplog.capacity, oplog.slow_threshold_s)
    yield oplog
    (oplog.enabled, oplog.capacity, oplog.slow_threshold_s) = saved
    oplog.clear()


class TestHealthCommand:
    def test_quiet_workload_is_ok_exit_zero(self, restore_oplog, capsys):
        assert main(["health", "--workload", "--ops", "30"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("overall: ok")
        assert "rollback-rate" in out

    def test_injected_faults_exit_nonzero_with_evidence(self, restore_oplog,
                                                        capsys):
        assert main(["health", "--inject", "transaction.commit",
                     "--ops", "30"]) == 1
        out = capsys.readouterr().out
        assert "overall: critical" in out
        assert "rollback" in out
        assert "InjectedFault" in out

    def test_json_payload_reports_fault_scenario(self, restore_oplog,
                                                 capsys):
        import json

        assert main(["health", "--inject", "transaction.commit",
                     "--ops", "30", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["status"] == "critical"
        by_probe = {probe["probe"]: probe for probe in payload["probes"]}
        assert by_probe["rollback-rate"]["status"] == "critical"
        assert "rollbacks" in by_probe["rollback-rate"]["evidence"]

    def test_no_workload_evaluates_current_process(self, restore_oplog,
                                                   capsys):
        exit_code = main(["health"])
        out = capsys.readouterr().out
        assert exit_code in (0, 1)
        assert out.startswith("overall:")


class TestMetricsWatch:
    def test_watch_emits_bounded_jsonl_samples(self, capsys):
        import json

        assert main(["metrics", "--scheme", "qed", "--ops", "10",
                     "--watch", "0.01", "--samples", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            sample = json.loads(line)
            assert set(sample) == {"ts", "elapsed_s", "metrics"}
            assert sample["metrics"]["updates.insertions"] == 10

    def test_watch_respects_prefix(self, capsys):
        import json

        assert main(["metrics", "--scheme", "qed", "--ops", "5",
                     "--watch", "0.01", "--samples", "1",
                     "--prefix", "updates."]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        sample = json.loads(line)
        assert sample["metrics"]
        assert all(name.startswith("updates.")
                   for name in sample["metrics"])


class TestTopCommand:
    def test_bounded_plain_frames(self, restore_oplog, capsys):
        assert main(["top", "--interval", "0.2", "--iterations", "2",
                     "--plain", "--scale", "0.05", "--ops", "20"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top —") == 2
        assert "ops/s" in out
        assert "health:" in out
        assert "repository.ingest" in out


class TestExplainCommand:
    def test_plain_explain_renders_plan(self, sample_file, capsys):
        assert main(["explain", sample_file, "//book"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN //book" in out
        assert "accelerator-window" in out
        assert "=> estimated" in out

    def test_analyze_records_actuals(self, sample_file, capsys):
        assert main(["explain", sample_file, "//book", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out
        assert "actual" in out

    def test_json_plan_is_valid(self, sample_file, capsys):
        import json

        assert main(["explain", sample_file, "//book", "--analyze",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["analyze"] is True
        assert payload["result_count"] is not None
        assert payload["steps"]

    def test_bad_path_reports_error(self, sample_file, capsys):
        assert main(["explain", sample_file, "//book["]) == 1
        assert "error:" in capsys.readouterr().err


class TestStatsCommand:
    def test_text_summary(self, sample_file, capsys):
        assert main(["stats", sample_file]) == 0
        out = capsys.readouterr().out
        assert "labelled nodes" in out
        assert "depth histogram" in out

    def test_json_payload(self, sample_file, capsys):
        import json

        assert main(["stats", sample_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["node_count"] > 0
        assert "tag_counts" in payload


class TestProfileCommand:
    def test_profiles_a_subcommand(self, sample_file, tmp_path, capsys):
        out_file = tmp_path / "q.collapsed"
        assert main(["profile", "--out", str(out_file),
                     "query", sample_file, "//book"]) == 0
        out = capsys.readouterr().out
        assert "-- profile:" in out
        assert out_file.exists()
        assert out_file.read_text().strip()

    def test_requires_a_command(self, capsys):
        assert main(["profile"]) == 2
        assert "needs a command" in capsys.readouterr().err

    def test_refuses_to_profile_itself(self, capsys):
        assert main(["profile", "profile", "schemes"]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_inner_exit_code_propagates(self, tmp_path, capsys):
        out_file = tmp_path / "fail.collapsed"
        assert main(["profile", "--out", str(out_file),
                     "label", "/nonexistent.xml"]) == 1

    def test_global_profile_flag_wraps_any_command(self, sample_file,
                                                   tmp_path, capsys):
        out_file = tmp_path / "global.collapsed"
        assert main(["--profile", str(out_file),
                     "query", sample_file, "//book"]) == 0
        captured = capsys.readouterr()
        assert "node(s)" in captured.out
        assert "-- profile:" in captured.err
        assert out_file.read_text().strip()


class TestUpdateCommand:
    CLEAN = "insert <keyword>networks</keyword> into /dblp/article[1];"
    CONFLICT = "delete //author;"

    def test_run_executes_program(self, sample_file, capsys):
        assert main(["update", "run", sample_file,
                     "rename //author as writer"]) == 0
        out = capsys.readouterr().out
        assert "applied 1 operation(s)" in out

    def test_run_writes_updated_document(self, sample_file, tmp_path, capsys):
        out_file = tmp_path / "updated.xml"
        assert main(["update", "run", sample_file,
                     "delete //price", "--out", str(out_file)]) == 0
        assert "price" not in out_file.read_text(encoding="utf-8")

    def test_run_program_operand_may_be_a_file(self, sample_file, tmp_path,
                                               capsys):
        program = tmp_path / "prog.ulang"
        program.write_text("delete //price;  # trim prices\n",
                           encoding="utf-8")
        assert main(["update", "run", sample_file, str(program)]) == 0

    def test_check_clean_program_exits_zero(self, sample_file, capsys):
        assert main(["update", "check", sample_file, self.CLEAN,
                     "--query", "/dblp/proceedings/editor/name"]) == 0
        out = capsys.readouterr().out
        assert "independent" in out

    def test_check_planted_conflict_exits_nonzero(self, sample_file, capsys):
        assert main(["update", "check", sample_file, self.CONFLICT,
                     "--query", "//author"]) == 1
        out = capsys.readouterr().out
        assert "UPD004" in out
        assert "may-conflict" in out

    def test_check_json_payload(self, sample_file, capsys):
        import json

        assert main(["update", "check", sample_file, self.CONFLICT,
                     "--query", "//author", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["verdicts"][0]["verdict"] == "may-conflict"

    def test_check_list_rules(self, capsys):
        assert main(["update", "check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("UPD001", "UPD002", "UPD003", "UPD004", "UPD005"):
            assert rule in out

    def test_explain_pairs_prediction_with_actuals(self, sample_file, capsys):
        assert main(["update", "explain", sample_file,
                     "delete //price", "--scheme", "ordpath"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN UPDATE BATCH" in out
        assert "predicted relabel extent" in out.lower()

    def test_syntax_error_exits_one(self, sample_file, capsys):
        assert main(["update", "run", sample_file, "obliterate //x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_operands_exit_two(self, capsys):
        assert main(["update", "check"]) == 2
        assert "needs" in capsys.readouterr().err
