"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evaluate``            rerun the paper's evaluation (Table 1, Figs 6–7)
``datasets``            list the reconstructed dataset pairs
``describe NAME``       print a pair's schemas and benchmark cases
``map NAME CASE``       run one benchmark case and print the candidates
``explain NAME CASE``   run one case with tracing: span tree, prune log,
                        rank provenance (``--json`` for the raw trace)
``ddl NAME``            emit SQL DDL for a pair's schemas
``dot NAME``            emit GraphViz DOT for a pair's CM graphs
``validate [NAME ...]`` pre-flight-check dataset pairs and their cases
``serve``               run the HTTP mapping-discovery service
``introspect S T``      ingest two databases (live SQLite, or SQL dumps
                        via ``--backend pgdump/auto``) against a CM:
                        introspect, recover semantics, seed or load
                        correspondences, optionally discover and verify
``compose A B``         compose two mapping-set documents (S→T ∘ T→U)
                        into a direct S→U mapping set
``evolve``              run a synthetic schema-evolution chain: per-hop
                        discovery, composition, equivalence against the
                        direct mapping, and a churn report
"""

from __future__ import annotations

import argparse
import signal
import sys


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    """The shared :class:`DiscoveryOptions` flags (``map``/``explain``)."""
    parser.add_argument(
        "--max-path-edges",
        type=int,
        default=6,
        metavar="N",
        help="length cap for the lossy-path search (Section 3.3)",
    )
    parser.add_argument(
        "--no-partof-filter",
        dest="use_partof_filter",
        action="store_false",
        help="disable the partOf compatibility filter (ablation)",
    )
    parser.add_argument(
        "--no-disjointness-filter",
        dest="use_disjointness_filter",
        action="store_false",
        help="disable the ISA-disjointness consistency filter (ablation)",
    )
    parser.add_argument(
        "--no-cardinality-filter",
        dest="use_cardinality_filter",
        action="store_false",
        help="disable the cardinality-category filter (ablation)",
    )


def _options_from_args(
    args: argparse.Namespace,
    explain: bool = False,
    trace: bool = False,
) -> DiscoveryOptions:
    from repro.discovery.options import DiscoveryOptions

    return DiscoveryOptions(
        max_path_edges=args.max_path_edges,
        use_partof_filter=args.use_partof_filter,
        use_disjointness_filter=args.use_disjointness_filter,
        use_cardinality_filter=args.use_cardinality_filter,
        explain=explain,
        trace=trace,
        engine=getattr(args, "engine", "semantic"),
    )


def _find_case(pair, case_id: str):
    matching = [c for c in pair.cases if c.case_id == case_id]
    if not matching:
        print(
            f"unknown case {case_id!r}; have "
            f"{[c.case_id for c in pair.cases]}",
            file=sys.stderr,
        )
        return None
    return matching[0]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation.harness import print_evaluation

    return print_evaluation(
        workers=args.workers,
        fail_fast=args.fail_fast,
        timeout_seconds=args.timeout,
        details=args.details,
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.datasets.registry import dataset_names, load_dataset
    from repro.exceptions import ReproError
    from repro.validation import ValidationReport, validate_correspondences

    names = args.names or list(dataset_names())
    unknown = [name for name in names if name not in dataset_names()]
    if unknown:
        print(
            f"unknown dataset(s) {unknown}; have {sorted(dataset_names())}",
            file=sys.stderr,
        )
        return 2
    errors = 0
    warnings = 0
    for name in names:
        report = ValidationReport()
        try:
            pair = load_dataset(name)
            cases = pair.cases
        except ReproError as error:
            # Building a pair's semantics checks its s-trees: a pair
            # that fails to build is one error, not a traceback.
            report.error("dataset.build", str(error), name)
            cases = ()
        for mapping_case in cases:
            case_report = validate_correspondences(
                mapping_case.correspondences, pair.source, pair.target
            )
            for diagnostic in case_report:
                report.add(
                    diagnostic.severity,
                    diagnostic.code,
                    diagnostic.message,
                    f"{mapping_case.case_id}: {diagnostic.location}"
                    if diagnostic.location
                    else mapping_case.case_id,
                )
        errors += len(report.errors)
        warnings += len(report.warnings)
        if report.ok and not report.warnings:
            print(f"{name}: ok ({len(cases)} case(s))")
        else:
            status = "FAILED" if not report.ok else "ok with warnings"
            print(f"{name}: {status}")
            for diagnostic in report:
                print(f"  {diagnostic}")
    print(
        f"validated {len(names)} pair(s): "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return 1 if errors else 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    from repro.datasets.registry import dataset_names, load_dataset

    header = f"{'name':<10} {'source':<10} {'target':<10} {'tables':<9} {'CM nodes':<10} cases"
    print(header)
    print("-" * len(header))
    for name in dataset_names():
        pair = load_dataset(name)
        print(
            f"{pair.name:<10} {pair.source_label:<10} {pair.target_label:<10} "
            f"{pair.source_table_count()}/{pair.target_table_count():<7} "
            f"{pair.source_cm_node_count()}/{pair.target_cm_node_count():<8} "
            f"{pair.mapping_count()}"
        )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset

    pair = load_dataset(args.name)
    print(pair.source.schema.describe())
    print()
    print(pair.target.schema.describe())
    print("\nBenchmark cases:")
    for mapping_case in pair.cases:
        print(f"  {mapping_case.case_id}: {mapping_case.description}")
        for correspondence in mapping_case.correspondences:
            print(f"      {correspondence}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset

    pair = load_dataset(args.name)
    mapping_case = _find_case(pair, args.case)
    if mapping_case is None:
        return 2
    rediscovery = None
    options = _options_from_args(args)
    if args.cache_dir:
        options = options.replace(cache_dir=args.cache_dir)
    if args.reuse_from:
        from repro.discovery import Scenario, rediscover

        previous_case = _find_case(pair, args.reuse_from)
        if previous_case is None:
            return 2
        previous = Scenario.create(
            f"{args.name}/{args.reuse_from}",
            pair.source,
            pair.target,
            previous_case.correspondences,
            options=options,
        ).run()
        rediscovery = rediscover(
            previous,
            Scenario.create(
                f"{args.name}/{args.case}",
                pair.source,
                pair.target,
                mapping_case.correspondences,
                options=options,
            ),
        )
        result = rediscovery.result
    else:
        from repro.discovery.mapper import SemanticMapper

        result = SemanticMapper(
            pair.source,
            pair.target,
            mapping_case.correspondences,
            options=options,
        ).discover()
    print(
        f"{len(result)} candidate(s) in {result.elapsed_seconds * 1000:.1f} ms"
    )
    for index, candidate in enumerate(result, start=1):
        print(f"  {candidate.to_tgd(f'M{index}')}")
    if rediscovery is not None:
        report = rediscovery.report()
        print(
            f"reuse from {args.reuse_from!r}: "
            f"{report['stage_cache_hits']} stage-cache hit(s) "
            f"({report['unit_cache_hits']} per-target unit(s)); "
            f"unchanged stages: "
            f"{', '.join(report['unchanged_stages']) or 'none'}; "
            f"invalidated: "
            f"{', '.join(report['invalidated_stages']) or 'none'}"
        )
    if args.stats:
        _print_stats(result.stats)
    return 0


def _print_stats(stats: dict) -> None:
    """The run's counters, then its spans by self time, largest first."""
    print("stats:")
    spans = []
    for name, value in sorted(stats.items()):
        if name.startswith("time_") and name.endswith("_s"):
            spans.append(name[len("time_") : -len("_s")])
        elif not name.startswith("self_"):
            print(f"  {name}: {value}")
    spans.sort(key=lambda span: -stats[f"self_{span}_s"])
    if spans:
        print(f"  {'span':<16} {'total ms':>10} {'self ms':>10}")
    for span in spans:
        print(
            f"  {span:<16} {stats[f'time_{span}_s'] * 1000:10.3f} "
            f"{stats[f'self_{span}_s'] * 1000:10.3f}"
        )


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from repro.datasets.registry import load_dataset
    from repro.discovery.mapper import SemanticMapper
    from repro.trace.render import render_trace

    pair = load_dataset(args.name)
    mapping_case = _find_case(pair, args.case)
    if mapping_case is None:
        return 2
    result = SemanticMapper(
        pair.source,
        pair.target,
        mapping_case.correspondences,
        options=_options_from_args(args, explain=True),
    ).discover()
    if args.json:
        print(json.dumps(result.trace, indent=2, sort_keys=True))
        return 0
    print(
        f"{args.name}/{args.case}: {len(result)} candidate(s) in "
        f"{result.elapsed_seconds * 1000:.1f} ms"
    )
    for index, candidate in enumerate(result, start=1):
        print(f"  {candidate.to_tgd(f'M{index}')}")
    print()
    print(render_trace(result.trace))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ReproServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_size,
        cache_entries=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
        request_timeout_seconds=args.request_timeout,
        job_timeout_seconds=args.job_timeout,
        quiet=not args.verbose,
        cache_dir=args.cache_dir,
        processes=args.processes,
    )
    extra = (
        f", cache dir {config.cache_dir}" if config.cache_dir else ""
    )
    shape = f"{config.workers} worker(s)"
    if config.processes > 1:
        shape = f"{config.processes} process(es) x {shape}"
    server = ReproServer(config)
    try:
        # SIGTERM drains like Ctrl-C, so the compute processes stop too.
        # SIGINT is set as well: a non-interactive shell starts
        # background jobs with it ignored, and ``kill -INT`` must still
        # stop the server.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        print(
            f"repro service listening on {server.url} "
            f"({shape}, queue {config.queue_capacity}, "
            f"cache {config.cache_entries} entries{extra}); Ctrl-C to stop",
            flush=True,
        )
    except KeyboardInterrupt:
        # No serve loop runs yet, so there is none to stop.
        server.close()
        return 0
    server.serve_forever()
    return 0


def _cmd_ddl(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset
    from repro.relational.ddl import emit_ddl

    pair = load_dataset(args.name)
    semantics = pair.source if args.side == "source" else pair.target
    print(emit_ddl(semantics.schema), end="")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.cm.dot import cm_graph_to_dot
    from repro.datasets.registry import load_dataset

    pair = load_dataset(args.name)
    semantics = pair.source if args.side == "source" else pair.target
    print(cm_graph_to_dot(semantics.graph, semantics.model.name))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset
    from repro.matching import suggest_correspondences

    pair = load_dataset(args.name)
    suggestions = suggest_correspondences(
        pair.source, pair.target, threshold=args.threshold
    )
    print(f"{len(suggestions)} suggestion(s):")
    for suggestion in suggestions:
        print(f"  {suggestion}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.datasets.registry import load_dataset
    from repro.semantics.recover import recover_semantics

    pair = load_dataset(args.name)
    semantics = pair.source if args.side == "source" else pair.target
    report = recover_semantics(semantics.schema, semantics.model)
    print(
        f"coverage: {report.coverage():.0%} "
        f"({len(report.semantics.tables_with_semantics())}/"
        f"{len(semantics.schema)} tables)"
    )
    for text in report.skipped_tables:
        print(f"  skipped: {text}")
    for text in report.unmapped_columns:
        print(f"  unmapped column: {text}")
    if args.table:
        print()
        print(report.semantics.tree(args.table).describe())
    return 0


def _cmd_introspect(args: argparse.Namespace) -> int:
    import json

    from repro.exceptions import IngestError, ReproError
    from repro.ingest import (
        ingest_pair,
        parse_correspondence_lines,
        resolve_cm_argument,
    )
    from repro.mappings.serialize import dump_mapping_set

    try:
        source_model, target_model = resolve_cm_argument(args.cm)
    except IngestError as error:
        print(str(error), file=sys.stderr)
        return 2
    correspondences = None
    if args.correspondences:
        try:
            with open(args.correspondences, "r", encoding="utf-8") as handle:
                correspondences = parse_correspondence_lines(handle)
        except (OSError, IngestError) as error:
            print(
                f"cannot read correspondences {args.correspondences!r}: "
                f"{error}",
                file=sys.stderr,
            )
            return 2
    sample_rows = args.sample
    if args.verify and sample_rows == 0:
        sample_rows = 100  # --verify needs live rows to check against
    try:
        ingested = ingest_pair(
            args.source_db,
            args.target_db,
            source_model,
            target_model,
            scenario_id=args.id,
            correspondences=correspondences,
            threshold=args.threshold,
            options=_options_from_args(args),
            sample_rows=sample_rows,
            strict=args.strict,
            backend=args.backend,
        )
    except ReproError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(ingested.describe())
    report = ingested.validation()
    rendered = report.render()
    if rendered:
        print(rendered)
    if args.emit_scenario:
        document = ingested.to_wire()
        with open(args.emit_scenario, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"scenario spec written to {args.emit_scenario}")
    if not report.ok:
        print("ingestion left errors; not discovering", file=sys.stderr)
        return 1
    if not (args.discover or args.verify):
        return 0
    if len(ingested.correspondences) == 0:
        print(
            "no correspondences; nothing to discover", file=sys.stderr
        )
        return 1
    result = ingested.scenario.run()
    print(
        f"\n{len(result)} candidate(s) in "
        f"{result.elapsed_seconds * 1000:.1f} ms"
    )
    for index, candidate in enumerate(result, start=1):
        print(f"  {candidate.to_tgd(f'M{index}')}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump_mapping_set(result.candidates))
        print(f"mappings written to {args.output}")
    if args.verify:
        from repro.mappings.verify import verify_mappings

        tgds = [
            candidate.to_tgd(f"M{index}")
            for index, candidate in enumerate(result, start=1)
        ]
        verification = verify_mappings(
            tgds, ingested.source_instance, ingested.target_instance
        )
        print(f"\nverification against sampled rows:\n{verification}")
        if not verification.ok:
            return 1
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.mappings import compose
    from repro.mappings.serialize import dump_mapping_set, load_mapping_set
    from repro.perf import counters as perf_counters
    from repro.queries.rewrite import REWRITE_LIMIT

    sets = []
    for path in (args.first, args.second):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sets.append(load_mapping_set(handle.read()))
        except (OSError, ReproError) as error:
            print(f"cannot load {path!r}: {error}", file=sys.stderr)
            return 2
    first, second = sets
    with perf_counters.scope() as counters:
        composed = compose(first, second, prune=not args.no_prune)
    print(
        f"composed {len(first)} ∘ {len(second)} candidate(s) → "
        f"{len(composed)}"
    )
    hits = counters.counts["rewrite_limit_hits"]
    if hits:
        print(
            f"note: {hits} premise rewriting(s) stopped at the limit of "
            f"{REWRITE_LIMIT} (rewrite_limit_hits); the composition may "
            f"be incomplete",
            file=sys.stderr,
        )
    for index, candidate in enumerate(composed, start=1):
        print(f"  {candidate.to_tgd(f'C{index}')}")
        if candidate.notes:
            print(f"    [{candidate.notes}]")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump_mapping_set(composed))
        print(f"composed mapping set written to {args.output}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.datasets.instances import generate_instance
    from repro.datasets.synthetic import evolution_chain
    from repro.discovery import Scenario, rediscover
    from repro.mappings import certain_rows, compose, equivalent, exchange
    from repro.mappings.diff import diff_candidates
    from repro.mappings.serialize import dump_mapping_set

    try:
        chain = evolution_chain(
            args.family, args.length, hops=args.hops, span=args.span
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(f"evolution chain {chain.chain_id}: {chain.hops} hop(s)")
    previous = None
    hop_results = []
    for index in range(chain.hops):
        source, target, correspondences = chain.hop(index)
        scenario = Scenario.create(
            f"{chain.chain_id}/hop{index}",
            source,
            target,
            correspondences,
        )
        outcome = rediscover(previous, scenario)
        result = outcome.result
        hop_results.append(result)
        reused = outcome.report()["stage_cache_hits"]
        print(
            f"  hop {index} (v{index}→v{index + 1}): "
            f"{len(result)} candidate(s) in "
            f"{result.elapsed_seconds * 1000:.1f} ms, "
            f"{reused} stage-cache hit(s)"
        )
        if previous is not None:
            churn = diff_candidates(previous.candidates, result.candidates)
            print(f"    churn vs previous hop: {churn.summary()}")
        previous = result
    composed = hop_results[0].mappings
    for result in hop_results[1:]:
        composed = compose(composed, result.mappings)
    print(f"composed: {len(composed)} candidate(s)")
    for index, candidate in enumerate(composed, start=1):
        print(f"  {candidate.to_tgd(f'C{index}')}")
    source, target, correspondences = chain.direct()
    direct = Scenario.create(
        f"{chain.chain_id}/direct", source, target, correspondences
    ).run()
    print(
        f"direct v0→v{chain.hops}: {len(direct)} candidate(s) in "
        f"{direct.elapsed_seconds * 1000:.1f} ms"
    )
    ok = equivalent(composed, direct.candidates)
    print(f"composed ≡ direct: {'yes' if ok else 'NO'}")
    instance = generate_instance(
        chain.versions[0].schema, rows_per_table=args.rows
    )
    via_composed = exchange(
        composed.to_tgds("C"), instance, chain.versions[-1].schema
    )
    via_direct = exchange(
        direct.mappings.to_tgds("D"), instance, chain.versions[-1].schema
    )
    certain_ok = all(
        certain_rows(via_composed, table) == certain_rows(via_direct, table)
        for table in chain.versions[-1].schema.tables
    )
    print(
        f"certain answers over {args.rows} row(s)/table: "
        f"{'equal' if certain_ok else 'DIFFER'}"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump_mapping_set(composed))
        print(f"composed mapping set written to {args.output}")
    return 0 if ok and certain_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser(
        "evaluate",
        help="rerun the evaluation",
        description="Rerun the paper's evaluation (Table 1, Figures 6-7).",
    )
    evaluate.add_argument(
        "--details",
        action="store_true",
        help="also print per-case precision/recall",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan dataset pairs out over N worker processes",
    )
    mode = evaluate.add_mutually_exclusive_group()
    mode.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        default=True,
        help="abort on the first failing case (default)",
    )
    mode.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="record failing cases, keep evaluating, exit 1 at the end",
    )
    evaluate.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-case wall-clock limit for the semantic method",
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    validate = commands.add_parser(
        "validate",
        help="pre-flight-check dataset pairs: each pair builds, each "
        "case's correspondences fit its semantics",
    )
    validate.add_argument(
        "names",
        nargs="*",
        help="dataset names to validate (default: all registered pairs)",
    )
    validate.set_defaults(handler=_cmd_validate)

    datasets = commands.add_parser("datasets", help="list dataset pairs")
    datasets.set_defaults(handler=_cmd_datasets)

    describe = commands.add_parser("describe", help="describe one pair")
    describe.add_argument("name")
    describe.set_defaults(handler=_cmd_describe)

    run_map = commands.add_parser("map", help="run one benchmark case")
    run_map.add_argument("name")
    run_map.add_argument("case")
    run_map.add_argument(
        "--engine",
        choices=["semantic", "clio"],
        default="semantic",
        help="discovery engine (clio = the paper's schema-only RIC "
        "baseline behind the same staged API)",
    )
    run_map.add_argument(
        "--reuse-from",
        metavar="CASE",
        help="incremental re-discovery: run CASE first to warm the "
        "stage cache, then run the requested case reusing the cached "
        "search of every unaffected target, and report what was reused",
    )
    run_map.add_argument(
        "--stats",
        action="store_true",
        help="also print perf counters and, per span, total and self "
        "wall time",
    )
    run_map.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent stage-artifact cache directory (shared across "
        "runs and processes; see docs/performance.md)",
    )
    _add_option_flags(run_map)
    run_map.set_defaults(handler=_cmd_map)

    explain = commands.add_parser(
        "explain",
        help="run one case with explain tracing: span tree with "
        "per-phase wall time, prune log (which compatibility rule "
        "eliminated what), and rank provenance",
    )
    explain.add_argument("name")
    explain.add_argument("case")
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace document instead of the report",
    )
    _add_option_flags(explain)
    explain.set_defaults(handler=_cmd_explain)

    serve = commands.add_parser(
        "serve",
        help="run the HTTP mapping-discovery service "
        "(POST /discover, POST /introspect, POST /compose, "
        "POST /validate, GET /jobs/<id>, /health, /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port (0 picks a free port)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="discovery job threads (per compute process with "
        "--processes)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="bounded job-queue capacity (full queue returns 429)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="result-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="result-cache time-to-live",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="how long a synchronous POST /discover waits before "
        "handing back a pollable job (202)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-scenario wall-clock limit; a synchronous request whose "
        "job it stops gets a 504 (see docs/service.md)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=1,
        help="compute processes that run discoveries (1 = on the "
        "server's own job threads); the server runs --workers x "
        "--processes jobs at once and keeps one job table, result "
        "cache and metrics",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent cache directory for stage artifacts and "
        "results, read again after a restart and by batch runs",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )
    serve.set_defaults(handler=_cmd_serve)

    ddl = commands.add_parser("ddl", help="emit SQL DDL")
    ddl.add_argument("name")
    ddl.add_argument("--side", choices=["source", "target"], default="source")
    ddl.set_defaults(handler=_cmd_ddl)

    dot = commands.add_parser("dot", help="emit GraphViz DOT")
    dot.add_argument("name")
    dot.add_argument("--side", choices=["source", "target"], default="source")
    dot.set_defaults(handler=_cmd_dot)

    match = commands.add_parser(
        "match", help="suggest correspondences with the name matcher"
    )
    match.add_argument("name")
    match.add_argument("--threshold", type=float, default=0.9)
    match.set_defaults(handler=_cmd_match)

    introspect = commands.add_parser(
        "introspect",
        help="ingest two databases (live SQLite or Postgres/MySQL SQL "
        "dumps): introspect schemas, recover semantics against a CM, "
        "seed correspondences, and optionally discover + verify "
        "mappings (docs/ingestion.md)",
    )
    introspect.add_argument(
        "source_db",
        help="path to the source database (SQLite file, or a "
        "pg_dump/mysqldump SQL file with --backend pgdump/auto)",
    )
    introspect.add_argument(
        "target_db",
        help="path to the target database (SQLite file or SQL dump)",
    )
    introspect.add_argument(
        "--backend",
        choices=("sqlite", "pgdump", "auto"),
        default="sqlite",
        help="catalog backend: 'sqlite' opens live databases, 'pgdump' "
        "parses Postgres/MySQL SQL dump files without executing them, "
        "'auto' sniffs each input (SQLite magic header vs dump text)",
    )
    introspect.add_argument(
        "--cm",
        required=True,
        metavar="NAME_OR_FILE",
        help="conceptual model: a registered dataset name (uses its "
        "source/target models) or a JSON model file (one model shared "
        "by both sides, or {'source': ..., 'target': ...})",
    )
    introspect.add_argument(
        "--id",
        default="ingested",
        help="scenario id for fingerprints, caches, and reports",
    )
    introspect.add_argument(
        "--correspondences",
        metavar="FILE",
        help="explicit correspondence file (one 'table.col <-> "
        "table.col' per line, '#' comments) replacing matcher output",
    )
    introspect.add_argument(
        "--threshold",
        type=float,
        default=0.75,
        help="matcher score threshold for seeded correspondences",
    )
    introspect.add_argument(
        "--emit-scenario",
        metavar="FILE",
        help="write the assembled scenario as an inline wire spec "
        "(replayable via POST /discover or stored as a fixture)",
    )
    introspect.add_argument(
        "--discover",
        action="store_true",
        help="also run discovery and print the candidate mappings",
    )
    introspect.add_argument(
        "--output",
        metavar="FILE",
        help="with --discover: write the candidate set as JSON "
        "(repro-mappings/1 format)",
    )
    introspect.add_argument(
        "--sample",
        type=int,
        default=0,
        metavar="N",
        help="sample up to N live rows per table into instances",
    )
    introspect.add_argument(
        "--verify",
        action="store_true",
        help="discover, then check every mapping against the sampled "
        "rows (implies --discover; samples 100 rows/table unless "
        "--sample is given); exits 1 on violations",
    )
    introspect.add_argument(
        "--strict",
        action="store_true",
        help="treat uninterpreted tables/columns as hard errors",
    )
    _add_option_flags(introspect)
    introspect.set_defaults(handler=_cmd_introspect)

    compose_cmd = commands.add_parser(
        "compose",
        help="compose two mapping-set documents (repro-mappings/1): "
        "an S→T set with a T→U set, yielding a direct S→U set "
        "(docs/lifecycle.md)",
        description="Compose an S→T mapping-set document with a T→U one. "
        "Each T→U premise is rewritten over the S→T tgds by the same "
        "inverse-rules walk as discovery, with its limit of "
        "256 rewritings per premise (a walk cut short at the limit is "
        "noted on stderr as rewrite_limit_hits), and each rewriting "
        "unfolded into an S→U candidate.",
    )
    compose_cmd.add_argument(
        "first", help="path to the S→T mapping-set JSON document"
    )
    compose_cmd.add_argument(
        "second", help="path to the T→U mapping-set JSON document"
    )
    compose_cmd.add_argument(
        "--output",
        metavar="FILE",
        help="write the composed set as JSON (repro-mappings/1 format)",
    )
    compose_cmd.add_argument(
        "--no-prune",
        action="store_true",
        help="keep redundant unfoldings (skip semantic dedup and "
        "logical minimization)",
    )
    compose_cmd.set_defaults(handler=_cmd_compose)

    evolve = commands.add_parser(
        "evolve",
        help="run a synthetic schema-evolution chain end to end: "
        "discover each hop (incrementally, reporting churn), compose "
        "the hop mappings, and check the result against direct "
        "discovery — logically and on certain answers",
    )
    evolve.add_argument(
        "--family",
        choices=["chain", "isa_fan"],
        default="chain",
        help="synthetic CM family for every version",
    )
    evolve.add_argument(
        "--length", type=int, default=3, help="chain length per version"
    )
    evolve.add_argument(
        "--hops", type=int, default=2, help="number of evolution hops"
    )
    evolve.add_argument(
        "--span",
        type=int,
        default=None,
        help="marked-attribute span (default: min(length, 8))",
    )
    evolve.add_argument(
        "--rows",
        type=int,
        default=4,
        help="generated rows per table for the certain-answer check",
    )
    evolve.add_argument(
        "--output",
        metavar="FILE",
        help="write the composed set as JSON (repro-mappings/1 format)",
    )
    evolve.set_defaults(handler=_cmd_evolve)

    recover = commands.add_parser(
        "recover", help="recover table semantics from schema + CM"
    )
    recover.add_argument("name")
    recover.add_argument(
        "--side", choices=["source", "target"], default="source"
    )
    recover.add_argument("--table", help="also print this table's s-tree")
    recover.set_defaults(handler=_cmd_recover)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
