"""The service's JSON wire format: requests in, scenarios and results out.

A *scenario spec* names a discovery input in one of two shapes:

Registered dataset (warm, cheap — the pair is built once per process)::

    {"dataset": "DBLP", "case": "dblp-article-in-journal"}
    {"dataset": "DBLP", "correspondences": ["article.title <-> ..."]}

Fully inline (self-contained — both schema semantics shipped in the
request)::

    {
        "id": "my-scenario",
        "source": {"schema": {...}, "model": {...}, "trees": {...}},
        "target": {"schema": {...}, "model": {...}, "trees": {...}},
        "correspondences": ["person.pname <-> hasbooksoldat.aname"]
    }

The semantics shape is produced by :func:`semantics_to_wire`: ``schema``
lists tables/columns/primary keys plus RICs in their textual form,
``model`` is :func:`repro.cm.serialize.model_to_dict`, and ``trees``
holds per-table s-tree specs accepted by
:meth:`repro.semantics.stree.SemanticTree.build`.

Result payloads reuse :mod:`repro.mappings.serialize` for the candidate
documents, so a served mapping set is the same JSON a user would get
from :func:`~repro.mappings.serialize.dump_mapping_set` — and the
deterministic part (``"mapping"``) is kept separate from per-run
diagnostics (``"run"``) so cached and fresh responses are byte-identical
where they must be.

Every malformed input raises :class:`~repro.exceptions.WireFormatError`
with a caller-safe message; the server maps these to HTTP 400.

Versioning
----------
Payloads carry ``"version": 1`` (:data:`WIRE_VERSION`). Requests may
declare the version they speak; an unknown major version is refused with
a 400 rather than misinterpreted. Adding *fields* is not a version bump;
changing the meaning or shape of existing ones is. See
``docs/service.md``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.cm.graph import CMGraph
from repro.cm.serialize import model_from_dict, model_to_dict
from repro.correspondences import CorrespondenceSet
from repro.datasets.registry import DatasetPair, dataset_names, load_dataset
from repro.discovery.batch import Scenario, ScenarioFailure
from repro.discovery.mapper import DiscoveryResult
from repro.discovery.options import DiscoveryOptions
from repro.exceptions import ReproError, WireFormatError
from repro.mappings.serialize import FORMAT, candidate_to_dict
from repro.relational.constraints import ReferentialConstraint
from repro.relational.schema import RelationalSchema, Table
from repro.semantics.lav import SchemaSemantics
from repro.semantics.stree import SemanticTree
from repro.validation import Diagnostic

#: The wire-format major version this module speaks.
WIRE_VERSION = 1


def check_wire_version(payload: Mapping[str, Any]) -> int:
    """Validate a request's declared ``"version"``; returns it.

    Absent means "current" (:data:`WIRE_VERSION`). A different major
    version — we only have majors — is refused: silently serving a
    client that speaks a different protocol corrupts data quietly, a 400
    fails it loudly.
    """
    version = payload.get("version", WIRE_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireFormatError(
            f"'version' must be an integer, got {type(version).__name__}"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version}; this server speaks "
            f"version {WIRE_VERSION}"
        )
    return version


# ---------------------------------------------------------------------------
# Dataset resolution (kept warm across requests)
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def resolve_dataset(name: str) -> DatasetPair:
    """Load a registered dataset pair once and keep it for the process.

    Reusing the same :class:`DatasetPair` objects across requests is
    what keeps the graph indexes, reasoner memos, and the batch layer's
    content keys warm — a cold ``load_dataset`` per request would defeat
    the serving architecture.
    """
    try:
        return load_dataset(name)
    except ReproError as error:
        raise WireFormatError(str(error)) from error


# ---------------------------------------------------------------------------
# Schema semantics <-> wire
# ---------------------------------------------------------------------------
def semantics_to_wire(semantics: SchemaSemantics) -> dict[str, Any]:
    """Serialize one :class:`SchemaSemantics` to the inline wire shape."""
    schema = semantics.schema
    trees: dict[str, Any] = {}
    for table_name in semantics.tables_with_semantics():
        tree = semantics.tree(table_name)
        trees[table_name] = {
            "root": tree.root.node_id,
            "edges": [
                [edge.parent.node_id, edge.cm_edge.label, edge.child.node_id]
                for edge in tree.edges
            ],
            "columns": {
                column: f"{node.node_id}.{attribute}"
                for column, (node, attribute) in sorted(tree.columns.items())
            },
        }
    return {
        "schema": {
            "name": schema.name,
            "tables": [
                {
                    "name": table.name,
                    "columns": list(table.columns),
                    "primary_key": list(table.primary_key),
                }
                for table in schema
            ],
            "rics": [str(ric) for ric in schema.rics],
        },
        "model": model_to_dict(semantics.model),
        "trees": trees,
    }


def semantics_from_wire(spec: Mapping[str, Any]) -> SchemaSemantics:
    """Rebuild a :class:`SchemaSemantics` from the inline wire shape."""
    if not isinstance(spec, Mapping):
        raise WireFormatError(
            f"semantics spec must be an object, got {type(spec).__name__}"
        )
    try:
        schema_spec = spec["schema"]
        model_spec = spec["model"]
    except KeyError as missing:
        raise WireFormatError(
            f"semantics spec needs {missing.args[0]!r}"
        ) from None
    try:
        tables = [
            Table(
                entry["name"],
                entry["columns"],
                entry.get("primary_key", ()),
            )
            for entry in schema_spec.get("tables", ())
        ]
        rics = [
            ReferentialConstraint.parse(text)
            for text in schema_spec.get("rics", ())
        ]
        schema = RelationalSchema(schema_spec["name"], tables, rics)
        model = model_from_dict(model_spec)
        graph = CMGraph(model)
        trees = {
            table_name: SemanticTree.build(
                graph,
                tree_spec["root"],
                [tuple(edge) for edge in tree_spec.get("edges", ())],
                tree_spec.get("columns", {}),
            )
            for table_name, tree_spec in spec.get("trees", {}).items()
        }
        return SchemaSemantics(schema, graph, trees)
    except WireFormatError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as error:
        raise WireFormatError(
            f"bad semantics spec: {type(error).__name__}: {error}"
        ) from error


# ---------------------------------------------------------------------------
# Scenario spec -> Scenario
# ---------------------------------------------------------------------------
def scenario_from_wire(
    spec: Mapping[str, Any],
    default_options: DiscoveryOptions | None = None,
) -> Scenario:
    """Build a batch :class:`Scenario` from one scenario spec.

    Discovery options come from the spec's ``"options"`` object
    (:func:`discovery_options_from_wire` — unknown keys and a
    ``cache_dir`` are 400s), falling back to ``default_options`` (e.g.
    the request-level ``"options"``). ``"mapper_options"`` is an alias
    of ``"options"``, parsed the same way; giving both is refused as
    ambiguous.
    """
    if not isinstance(spec, Mapping):
        raise WireFormatError(
            f"scenario spec must be an object, got {type(spec).__name__}"
        )
    if "dataset" in spec:
        source, target, correspondences, default_id = _dataset_scenario(spec)
    elif "source" in spec and "target" in spec:
        source = semantics_from_wire(spec["source"])
        target = semantics_from_wire(spec["target"])
        correspondences = _parse_correspondences(
            spec.get("correspondences", ())
        )
        default_id = "inline"
    else:
        raise WireFormatError(
            "scenario spec needs either a registered 'dataset' or inline "
            "'source' and 'target' semantics"
        )
    scenario_id = str(spec.get("id", default_id))
    if "options" in spec and "mapper_options" in spec:
        raise WireFormatError(
            "give discovery options as 'options' or its alias "
            "'mapper_options', not both"
        )
    options = default_options
    for key in ("options", "mapper_options"):
        if key in spec:
            options = discovery_options_from_wire(spec[key])
    return Scenario.create(
        scenario_id, source, target, correspondences, options=options
    )


def discovery_options_from_wire(spec: Any) -> DiscoveryOptions:
    """Parse one wire ``"options"`` object; bad shapes become 400s.

    A ``cache_dir`` path is refused: the cache directory is a *server*
    deployment setting (``--cache-dir`` / ``ServiceConfig``), and a
    client must not be able to point the process at an arbitrary
    filesystem path. An explicit ``null`` is allowed — it is the
    default, so full ``DiscoveryOptions.to_dict()`` payloads round-trip.
    """
    if not isinstance(spec, Mapping):
        raise WireFormatError(
            f"'options' must be an object, got {type(spec).__name__}"
        )
    if spec.get("cache_dir") is not None:
        raise WireFormatError(
            "'cache_dir' is a server-side setting and cannot be supplied "
            "in request options; start the service with --cache-dir"
        )
    try:
        return DiscoveryOptions.from_mapping(spec, where="options")
    except ValueError as error:
        raise WireFormatError(str(error)) from error


def _dataset_scenario(
    spec: Mapping[str, Any],
) -> tuple[SchemaSemantics, SchemaSemantics, CorrespondenceSet, str]:
    name = spec["dataset"]
    if not isinstance(name, str):
        raise WireFormatError(
            f"'dataset' must be a string, got {type(name).__name__}"
        )
    pair = resolve_dataset(name)
    if "case" in spec:
        case_id = spec["case"]
        matching = [c for c in pair.cases if c.case_id == case_id]
        if not matching:
            raise WireFormatError(
                f"dataset {name!r} has no case {case_id!r}; have "
                f"{[c.case_id for c in pair.cases]}"
            )
        (case,) = matching
        return pair.source, pair.target, case.correspondences, (
            f"{name}/{case_id}"
        )
    if "correspondences" in spec:
        correspondences = _parse_correspondences(spec["correspondences"])
        return pair.source, pair.target, correspondences, f"{name}/adhoc"
    raise WireFormatError(
        f"dataset scenario for {name!r} needs a 'case' id or an explicit "
        f"'correspondences' list; known datasets: {sorted(dataset_names())}"
    )


def _parse_correspondences(texts: Any) -> CorrespondenceSet:
    if not isinstance(texts, (list, tuple)) or not all(
        isinstance(text, str) for text in texts
    ):
        raise WireFormatError(
            "'correspondences' must be a list of "
            "'table.column <-> table.column' strings"
        )
    try:
        return CorrespondenceSet.parse(list(texts))
    except ReproError as error:
        raise WireFormatError(str(error)) from error


# ---------------------------------------------------------------------------
# Discovery request options
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiscoverOptions:
    """Per-request knobs of ``POST /discover``.

    ``discovery`` holds the request-level ``"options"`` object (applied
    to the scenario unless the scenario spec carries its own).
    """

    mode: str = "sync"
    use_cache: bool = True
    timeout_seconds: float | None = None
    discovery: DiscoveryOptions = field(default_factory=DiscoveryOptions)


def discover_request_from_wire(
    payload: Mapping[str, Any],
) -> tuple[Scenario, DiscoverOptions]:
    """Parse a full ``POST /discover`` body: scenario + options."""
    if not isinstance(payload, Mapping):
        raise WireFormatError("request body must be a JSON object")
    check_wire_version(payload)
    if "scenario" not in payload:
        raise WireFormatError("request body needs a 'scenario' object")
    discovery = DiscoveryOptions()
    if "options" in payload:
        discovery = discovery_options_from_wire(payload["options"])
    scenario = scenario_from_wire(
        payload["scenario"], default_options=discovery
    )
    mode = payload.get("mode", "sync")
    if mode not in ("sync", "async"):
        raise WireFormatError(f"'mode' must be 'sync' or 'async', got {mode!r}")
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise WireFormatError("'use_cache' must be a boolean")
    timeout = payload.get("timeout_seconds")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise WireFormatError("'timeout_seconds' must be a positive number")
        timeout = float(timeout)
    return scenario, DiscoverOptions(mode, use_cache, timeout, discovery)


# ---------------------------------------------------------------------------
# Ingestion requests (POST /introspect)
# ---------------------------------------------------------------------------
#: Keys in a wire database spec that smell like filesystem/network
#: references — refused outright, mirroring the ``cache_dir`` policy.
_PATHLIKE_DB_KEYS = frozenset(
    {"path", "file", "filename", "url", "uri", "database", "dsn"}
)


@dataclass(frozen=True)
class IngestRequest:
    """A parsed ``POST /introspect`` body (see ``docs/ingestion.md``).

    Both databases arrive as *SQL dumps* — never as paths; models
    arrive as registered dataset names or inline documents — never as
    files. ``backend`` picks how the dumps are read: ``"sqlite"``
    executes them into in-memory connections under the ATTACH-denying
    authorizer, ``"pgdump"`` parses Postgres/MySQL dump text without
    executing anything, ``"auto"`` sniffs each dump's dialect.
    """

    source_sql: str
    target_sql: str
    source_model: Any
    target_model: Any
    scenario_id: str
    correspondences: CorrespondenceSet | None
    threshold: float
    sample_rows: int
    verify: bool
    strict: bool
    options: DiscoverOptions
    backend: str = "sqlite"


def _database_sql(spec: Any, side: str) -> str:
    """Extract the SQL dump of one wire database spec; refuse paths.

    The server must never open a filesystem path a client named: a
    request like ``{"path": "/etc/..."}`` is rejected with a message
    explaining the policy, exactly like ``cache_dir`` in options.
    """
    if not isinstance(spec, Mapping):
        raise WireFormatError(
            f"'{side}' must be an object with an 'sql' dump, got "
            f"{type(spec).__name__}"
        )
    pathlike = sorted(_PATHLIKE_DB_KEYS & set(spec))
    if pathlike:
        raise WireFormatError(
            f"'{side}' carries filesystem/network reference(s) "
            f"{pathlike}: the server never opens paths named by a "
            f"client; ship the database as {{'sql': <dump>}} (use "
            f"'python -m repro introspect' locally for file access)"
        )
    unknown = sorted(set(spec) - {"sql"})
    if unknown:
        raise WireFormatError(
            f"'{side}' has unknown key(s) {unknown}; expected 'sql'"
        )
    sql = spec.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise WireFormatError(
            f"'{side}.sql' must be a non-empty SQL dump string"
        )
    return sql


def _cm_models(spec: Any) -> tuple[Any, Any]:
    """Resolve the wire ``"cm"`` field to ``(source, target)`` models."""
    if isinstance(spec, str):
        if spec in dataset_names():
            pair = resolve_dataset(spec)
            return pair.source.model, pair.target.model
        raise WireFormatError(
            f"'cm' {spec!r} is not a registered dataset "
            f"({sorted(dataset_names())}); file paths cannot be "
            f"supplied over the wire — inline the model document "
            f"instead"
        )
    if isinstance(spec, Mapping):
        try:
            if "source" in spec and "target" in spec:
                return (
                    model_from_dict(spec["source"]),
                    model_from_dict(spec["target"]),
                )
            model = model_from_dict(spec)
            return model, model
        except (ReproError, KeyError, TypeError, ValueError) as error:
            raise WireFormatError(
                f"bad 'cm' model document: {error}"
            ) from error
    raise WireFormatError(
        f"'cm' must be a dataset name or an inline model document, got "
        f"{type(spec).__name__}"
    )


def introspect_request_from_wire(payload: Mapping[str, Any]) -> IngestRequest:
    """Parse a full ``POST /introspect`` body; bad shapes become 400s."""
    if not isinstance(payload, Mapping):
        raise WireFormatError("request body must be a JSON object")
    check_wire_version(payload)
    for key in ("source_db", "target_db", "cm"):
        if key not in payload:
            raise WireFormatError(f"request body needs {key!r}")
    source_sql = _database_sql(payload["source_db"], "source_db")
    target_sql = _database_sql(payload["target_db"], "target_db")
    backend = payload.get("backend", "sqlite")
    if backend not in ("sqlite", "pgdump", "auto"):
        raise WireFormatError(
            f"'backend' must be 'sqlite', 'pgdump', or 'auto', got "
            f"{backend!r}"
        )
    source_model, target_model = _cm_models(payload["cm"])
    correspondences = None
    if "correspondences" in payload:
        correspondences = _parse_correspondences(payload["correspondences"])
    threshold = payload.get("threshold", 0.75)
    if (
        not isinstance(threshold, (int, float))
        or isinstance(threshold, bool)
        or not 0.0 < threshold <= 1.0
    ):
        raise WireFormatError(
            "'threshold' must be a number in (0, 1]"
        )
    strict = payload.get("strict", False)
    if not isinstance(strict, bool):
        raise WireFormatError("'strict' must be a boolean")
    verify = payload.get("verify", False)
    if not isinstance(verify, bool):
        raise WireFormatError("'verify' must be a boolean")
    sample_rows = payload.get("sample_rows", 100 if verify else 0)
    if (
        not isinstance(sample_rows, int)
        or isinstance(sample_rows, bool)
        or sample_rows < 0
    ):
        raise WireFormatError(
            "'sample_rows' must be a non-negative integer"
        )
    if verify and sample_rows == 0:
        raise WireFormatError(
            "'verify' needs sampled rows; leave 'sample_rows' unset or "
            "make it positive"
        )
    discovery = DiscoveryOptions()
    if "options" in payload:
        discovery = discovery_options_from_wire(payload["options"])
    mode = payload.get("mode", "sync")
    if mode not in ("sync", "async"):
        raise WireFormatError(
            f"'mode' must be 'sync' or 'async', got {mode!r}"
        )
    if verify and mode == "async":
        raise WireFormatError(
            "'verify' is synchronous (it checks mappings against the "
            "sampled rows before responding); use mode 'sync'"
        )
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise WireFormatError("'use_cache' must be a boolean")
    timeout = payload.get("timeout_seconds")
    if timeout is not None:
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise WireFormatError(
                "'timeout_seconds' must be a positive number"
            )
        timeout = float(timeout)
    return IngestRequest(
        source_sql=source_sql,
        target_sql=target_sql,
        source_model=source_model,
        target_model=target_model,
        scenario_id=str(payload.get("id", "introspected")),
        correspondences=correspondences,
        threshold=float(threshold),
        sample_rows=sample_rows,
        verify=verify,
        strict=strict,
        options=DiscoverOptions(mode, use_cache, timeout, discovery),
        backend=backend,
    )


# ---------------------------------------------------------------------------
# Composition requests (POST /compose)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ComposeRequest:
    """A parsed ``POST /compose`` body.

    ``first`` and ``second`` are mapping sets in the same
    ``repro-mappings/1`` document shape that ``/discover`` responses and
    :func:`repro.mappings.serialize.dump_mapping_set` emit; the composed
    S→U set comes back in that shape too. Composition is pure algebra on
    the documents — no schemas are shipped and no discovery runs.
    """

    first: Any
    second: Any
    prune: bool


#: Every top-level key of a ``POST /compose`` body.
_COMPOSE_KEYS = frozenset({"version", "first", "second", "prune"})

#: Keys a ``POST /compose`` body no longer takes, with why each went.
_REMOVED_COMPOSE_KEYS = {
    "max_solutions_per_candidate": "composition shares the rewriting "
    "limit and counts a cut-short enumeration in rewrite_limit_hits",
    "invert": "a per-candidate inverse is no recovery when several tgds "
    "write one target relation",
}


def compose_request_from_wire(payload: Mapping[str, Any]) -> ComposeRequest:
    """Parse a full ``POST /compose`` body; bad shapes become 400s."""
    from repro.mappings.serialize import mapping_set_from_dict

    if not isinstance(payload, Mapping):
        raise WireFormatError("request body must be a JSON object")
    check_wire_version(payload)
    unknown = sorted(set(payload) - _COMPOSE_KEYS)
    if unknown:
        message = (
            f"unknown key(s) {unknown}; known: {sorted(_COMPOSE_KEYS)}"
        )
        for key in unknown:
            if key in _REMOVED_COMPOSE_KEYS:
                message += (
                    f"; {key!r} was removed: {_REMOVED_COMPOSE_KEYS[key]}"
                )
        raise WireFormatError(message)
    sets = []
    for key in ("first", "second"):
        if key not in payload:
            raise WireFormatError(
                f"request body needs {key!r}: a {FORMAT} mapping-set "
                f"document"
            )
        try:
            sets.append(mapping_set_from_dict(payload[key]))
        except ReproError as error:
            raise WireFormatError(
                f"bad {key!r} mapping set: {error}"
            ) from error
    prune = payload.get("prune", True)
    if not isinstance(prune, bool):
        raise WireFormatError("'prune' must be a boolean")
    return ComposeRequest(first=sets[0], second=sets[1], prune=prune)


# ---------------------------------------------------------------------------
# Results / failures / diagnostics -> wire
# ---------------------------------------------------------------------------
def result_to_wire(result: DiscoveryResult) -> dict[str, Any]:
    """Serialize one :class:`DiscoveryResult` to a response payload.

    ``"mapping"`` is the deterministic part — candidates (via
    :func:`repro.mappings.serialize.candidate_to_dict`), notes,
    eliminations, uncovered correspondences — identical across runs for
    equal inputs, which makes cached responses byte-identical to fresh
    ones. ``"run"`` carries per-run measurements (wall time, perf
    counters) that legitimately vary. ``"trace"`` appears only for
    traced runs and is deterministic except for its ``elapsed_s`` span
    timings (see :mod:`repro.trace`).
    """
    payload: dict[str, Any] = {
        "version": WIRE_VERSION,
        "mapping": {
            "format": FORMAT,
            "candidates": [
                candidate_to_dict(candidate)
                for candidate in result.candidates
            ],
            "notes": list(result.notes),
            "eliminations": list(result.eliminations),
            "uncovered": [
                str(c) for c in result.uncovered_correspondences()
            ],
        },
        "run": {
            "elapsed_seconds": result.elapsed_seconds,
            "stats": dict(result.stats),
        },
    }
    if result.trace is not None:
        payload["trace"] = result.trace
    return payload


def failure_to_wire(failure: ScenarioFailure) -> dict[str, Any]:
    """Serialize one batch :class:`ScenarioFailure` to an error payload."""
    return {
        "type": failure.error_type,
        "message": failure.message,
        "scenario_id": failure.scenario_id,
        "traceback": list(failure.traceback_summary),
        "elapsed_seconds": failure.elapsed_seconds,
    }


def diagnostics_to_wire(
    diagnostics: Iterable[Diagnostic],
) -> list[dict[str, str]]:
    """Serialize diagnostics (a :class:`ValidationReport` or any
    sequence of :class:`Diagnostic`), in order."""
    return [
        {
            "severity": diagnostic.severity,
            "code": diagnostic.code,
            "message": diagnostic.message,
            "location": diagnostic.location,
        }
        for diagnostic in diagnostics
    ]
