"""Unit tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestDatasetsCommand:
    def test_lists_all_pairs(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ["DBLP", "Mondial", "Amalgam", "3Sdb", "UT", "Hotel"]:
            assert name in out


class TestEvaluateCommand:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, workers, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--workers", workers])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers: must be >= 1" in err


class TestDescribeCommand:
    def test_prints_schemas_and_cases(self, capsys):
        assert main(["describe", "Hotel"]) == 0
        out = capsys.readouterr().out
        assert "schema hotelA" in out
        assert "hotel-guest-rate" in out
        assert "↔" in out


class TestMapCommand:
    def test_semantic_method(self, capsys):
        assert main(["map", "Hotel", "hotel-rate-of-room"]) == 0
        out = capsys.readouterr().out
        assert "candidate(s)" in out
        assert "rateplan" in out

    def test_ric_method(self, capsys):
        """``--engine clio`` prints the RIC baseline's candidates."""
        from repro.baseline.clio import RICBasedMapper
        from repro.datasets.registry import load_dataset

        assert (
            main(["map", "Hotel", "hotel-rate-of-room", "--engine", "clio"])
            == 0
        )
        out = capsys.readouterr().out
        pair = load_dataset("Hotel")
        (case,) = [c for c in pair.cases if c.case_id == "hotel-rate-of-room"]
        expected = RICBasedMapper(
            pair.source.schema, pair.target.schema, case.correspondences
        ).discover()
        assert f"{len(expected)} candidate(s)" in out
        for index, candidate in enumerate(expected, start=1):
            assert f"  {candidate.to_tgd(f'M{index}')}\n" in out

    def test_method_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "Hotel", "hotel-rate-of-room", "--method", "ric"])
        assert "--method" in capsys.readouterr().err

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_unknown_case_fails(self, capsys):
        assert main(["map", "Hotel", "ghost-case"]) == 2
        assert "unknown case" in capsys.readouterr().err

    def test_option_flags_change_discovery(self, capsys):
        assert (
            main(
                [
                    "map",
                    "Network",
                    "network-interface-of-device",
                    "--no-partof-filter",
                ]
            )
            == 0
        )
        assert "2 candidate(s)" in capsys.readouterr().out


class TestExplainCommand:
    CASE = ["explain", "Network", "network-interface-of-device"]

    def test_span_tree_and_prune_log(self, capsys):
        assert main(self.CASE) == 0
        out = capsys.readouterr().out
        assert "span tree (wall time per phase):" in out
        assert "discover" in out
        assert "pruned by partOf" in out
        assert "prune log" in out
        assert "rank provenance" in out

    def test_json_emits_trace_document(self, capsys):
        import json

        assert main(self.CASE + ["--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-trace/1"
        assert document["explain"] is True
        assert document["prunes"]
        assert {event["rule"] for event in document["prunes"]} == {"partOf"}

    def test_stable_modulo_timings(self, capsys):
        import json
        import re

        runs = []
        for _ in range(2):
            assert main(self.CASE + ["--json"]) == 0
            text = capsys.readouterr().out
            runs.append(re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', text))
        assert runs[0] == runs[1]
        json.loads(runs[0])  # still a valid document after the scrub

    def test_disabled_filter_removes_prune(self, capsys):
        assert main(self.CASE + ["--no-partof-filter"]) == 0
        out = capsys.readouterr().out
        assert "pruned by partOf" not in out
        assert "2 candidate(s)" in out

    def test_unknown_case_fails(self, capsys):
        assert main(["explain", "Network", "ghost-case"]) == 2
        assert "unknown case" in capsys.readouterr().err


class TestDdlCommand:
    def test_emits_create_tables(self, capsys):
        assert main(["ddl", "Hotel", "--side", "target"]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE property" in out
        assert "FOREIGN KEY" in out


class TestDotCommand:
    def test_emits_digraph(self, capsys):
        assert main(["dot", "Hotel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "Booking◇" in out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestMatchCommand:
    def test_suggestions_printed(self, capsys):
        assert main(["match", "DBLP", "--threshold", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "suggestion(s):" in out
        assert "publication.title ↔ publication.title" in out


class TestRecoverCommand:
    def test_full_coverage_reported(self, capsys):
        assert main(["recover", "Hotel", "--table", "booking"]) == 0
        out = capsys.readouterr().out
        assert "coverage: 100%" in out
        assert "s-tree anchored at Booking" in out


class TestValidateCommand:
    def test_all_pairs_validate_clean(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "Hotel: ok" in out
        assert "0 error(s)" in out

    def test_single_pair(self, capsys):
        assert main(["validate", "Hotel"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Hotel: ok")
        assert "validated 1 pair(s)" in out

    def test_unknown_pair_fails(self, capsys):
        assert main(["validate", "Ghost"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_pair_that_fails_to_build_is_an_error(self, capsys, monkeypatch):
        from repro.datasets import registry
        from repro.exceptions import SemanticsError

        def broken(name):
            raise SemanticsError(f"s-tree of {name!r} is broken")

        monkeypatch.setattr(registry, "load_dataset", broken)
        assert main(["validate", "Hotel"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("Hotel: FAILED")
        assert "error: dataset.build [Hotel]: s-tree of 'Hotel'" in out
        assert "1 error(s)" in out

    def test_conflicting_evaluate_modes_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--fail-fast", "--keep-going"])


class TestIntrospectCommand:
    @pytest.fixture
    def hotel_files(self, tmp_path):
        from repro.datasets.instances import generate_instance
        from repro.datasets.registry import load_dataset
        from repro.ingest import materialize_sqlite

        pair = load_dataset("Hotel")
        paths = {}
        for name, side in (
            ("source", pair.source),
            ("target", pair.target),
        ):
            instance = generate_instance(side.schema, rows_per_table=3)
            path = str(tmp_path / f"{name}.db")
            materialize_sqlite(side.schema, path, instance=instance).close()
            paths[name] = path
        case = pair.cases[0]
        corrs = tmp_path / "corrs.txt"
        corrs.write_text(
            "".join(
                f"{c.source} <-> {c.target}\n"
                for c in case.correspondences
            ),
            encoding="utf-8",
        )
        return paths, str(corrs)

    def test_introspect_and_discover(self, capsys, hotel_files):
        paths, corrs = hotel_files
        assert (
            main(
                [
                    "introspect",
                    paths["source"],
                    paths["target"],
                    "--cm",
                    "Hotel",
                    "--correspondences",
                    corrs,
                    "--discover",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tables recovered (100% coverage)" in out
        assert "candidate(s)" in out

    def test_emit_scenario_spec(self, capsys, hotel_files, tmp_path):
        import json

        paths, corrs = hotel_files
        spec_path = tmp_path / "scenario.json"
        assert (
            main(
                [
                    "introspect",
                    paths["source"],
                    paths["target"],
                    "--cm",
                    "Hotel",
                    "--correspondences",
                    corrs,
                    "--emit-scenario",
                    str(spec_path),
                ]
            )
            == 0
        )
        document = json.loads(spec_path.read_text(encoding="utf-8"))
        assert set(document) >= {"id", "source", "target", "correspondences"}

    def test_missing_database_fails(self, capsys, tmp_path):
        assert (
            main(
                [
                    "introspect",
                    str(tmp_path / "ghost.db"),
                    str(tmp_path / "ghost2.db"),
                    "--cm",
                    "Hotel",
                ]
            )
            == 2
        )
        assert "ghost" in capsys.readouterr().err

    def test_unknown_cm_fails(self, capsys, tmp_path):
        assert (
            main(
                [
                    "introspect",
                    str(tmp_path / "a.db"),
                    str(tmp_path / "b.db"),
                    "--cm",
                    "NoSuchModel",
                ]
            )
            == 2
        )
        assert "NoSuchModel" in capsys.readouterr().err


class TestIntrospectBackends:
    @pytest.fixture
    def hotel_dumps(self, tmp_path):
        from repro.datasets.instances import generate_instance
        from repro.datasets.registry import load_dataset
        from repro.ingest import pgdump_ddl

        pair = load_dataset("Hotel")
        paths = {}
        for name, side in (
            ("source", pair.source),
            ("target", pair.target),
        ):
            instance = generate_instance(side.schema, rows_per_table=3)
            path = tmp_path / f"{name}.sql"
            path.write_text(
                pgdump_ddl(side.schema, instance=instance),
                encoding="utf-8",
            )
            paths[name] = str(path)
        case = pair.cases[0]
        corrs = tmp_path / "corrs.txt"
        corrs.write_text(
            "".join(
                f"{c.source} <-> {c.target}\n"
                for c in case.correspondences
            ),
            encoding="utf-8",
        )
        return paths, str(corrs)

    def test_pgdump_backend_discovers(self, capsys, hotel_dumps):
        paths, corrs = hotel_dumps
        assert (
            main(
                [
                    "introspect",
                    paths["source"],
                    paths["target"],
                    "--cm",
                    "Hotel",
                    "--backend",
                    "pgdump",
                    "--correspondences",
                    corrs,
                    "--discover",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "tables recovered (100% coverage)" in out
        assert "candidate(s)" in out

    def test_auto_backend_detects_dump(self, capsys, hotel_dumps):
        paths, corrs = hotel_dumps
        assert (
            main(
                [
                    "introspect",
                    paths["source"],
                    paths["target"],
                    "--cm",
                    "Hotel",
                    "--backend",
                    "auto",
                    "--correspondences",
                    corrs,
                ]
            )
            == 0
        )

    def test_unreadable_dump_is_structured_not_traceback(
        self, capsys, tmp_path
    ):
        assert (
            main(
                [
                    "introspect",
                    str(tmp_path / "ghost.sql"),
                    str(tmp_path / "ghost2.sql"),
                    "--cm",
                    "Hotel",
                    "--backend",
                    "pgdump",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "dump.unreadable" in err
        assert "ghost" in err
        assert "Traceback" not in err

    def test_empty_dump_is_structured_not_traceback(
        self, capsys, tmp_path
    ):
        empty = tmp_path / "empty.sql"
        empty.write_text("   \n", encoding="utf-8")
        other = tmp_path / "other.sql"
        other.write_text("CREATE TABLE t (a integer);\n", encoding="utf-8")
        assert (
            main(
                [
                    "introspect",
                    str(empty),
                    str(other),
                    "--cm",
                    "Hotel",
                    "--backend",
                    "pgdump",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "dump.empty" in err
        assert "Traceback" not in err

    def test_binary_dump_is_structured_not_traceback(
        self, capsys, tmp_path
    ):
        import sqlite3

        db = tmp_path / "real.db"
        conn = sqlite3.connect(str(db))
        conn.execute("CREATE TABLE t (a TEXT)")
        conn.commit()
        conn.close()
        other = tmp_path / "other.sql"
        other.write_text("CREATE TABLE t (a integer);\n", encoding="utf-8")
        assert (
            main(
                [
                    "introspect",
                    str(db),
                    str(other),
                    "--cm",
                    "Hotel",
                    "--backend",
                    "pgdump",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "dump." in err
        assert "Traceback" not in err


class TestEvolveAndCompose:
    @pytest.fixture(scope="class")
    def evolved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("evolve") / "composed.json"
        argv = ["evolve", "--family", "chain", "--length", "3"]
        argv += ["--hops", "2", "--output", str(path)]
        assert main(argv) == 0
        return str(path)

    def test_evolve_writes_a_loadable_set(self, evolved):
        from repro.mappings.serialize import load_mapping_set

        with open(evolved, encoding="utf-8") as handle:
            assert len(load_mapping_set(handle.read())) == 1

    def test_compose_a_set_with_itself(self, capsys, evolved):
        assert main(["compose", evolved, evolved]) == 0
        captured = capsys.readouterr()
        assert "composed 1 ∘ 1 candidate(s) → 1" in captured.out
        assert "rewrite_limit_hits" not in captured.err

    def test_compose_missing_file_fails(self, capsys, evolved, tmp_path):
        assert main(["compose", str(tmp_path / "ghost.json"), evolved]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_max_solutions_flag_is_gone(self, capsys, evolved):
        with pytest.raises(SystemExit) as exit_info:
            main(["compose", evolved, evolved, "--max-solutions", "4"])
        assert exit_info.value.code == 2
        assert "--max-solutions" in capsys.readouterr().err

    def test_invert_flag_is_gone(self, capsys, evolved):
        with pytest.raises(SystemExit) as exit_info:
            main(["compose", evolved, evolved, "--invert"])
        assert exit_info.value.code == 2
        assert "--invert" in capsys.readouterr().err

    def test_compose_notes_a_truncated_walk(self, capsys, tmp_path):
        """4**5 unfoldings, each left out: the walk stops at the limit
        and the CLI says so on stderr."""
        from repro.mappings import MappingCandidate, MappingSet
        from repro.mappings.serialize import dump_mapping_set
        from repro.queries.parser import parse_query

        chain = ", ".join(f"m(v{i}, v{i + 1})" for i in range(5))
        documents = {
            "first.json": [
                (f"ans(x) :- a{i}(x)", "ans(x) :- m(x, y)") for i in range(4)
            ],
            "second.json": [(f"ans(v0) :- {chain}", "ans(v0) :- q(v0)")],
        }
        for name, pairs in documents.items():
            candidates = [
                MappingCandidate(parse_query(s), parse_query(t), ())
                for s, t in pairs
            ]
            (tmp_path / name).write_text(
                dump_mapping_set(MappingSet.of(candidates)), encoding="utf-8"
            )
        argv = ["compose", str(tmp_path / "first.json")]
        assert main(argv + [str(tmp_path / "second.json")]) == 0
        captured = capsys.readouterr()
        assert "composed 4 ∘ 1 candidate(s) → 0" in captured.out
        assert "rewrite_limit_hits" in captured.err

    def test_compose_help_names_the_shared_limit(self, capsys):
        from repro.queries.rewrite import REWRITE_LIMIT

        with pytest.raises(SystemExit):
            main(["compose", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"limit of {REWRITE_LIMIT} rewritings" in out
        assert "rewrite_limit_hits" in out
