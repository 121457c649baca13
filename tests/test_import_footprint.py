"""The package's import footprint: a process loads only what it runs.

``import repro`` (and the CLI and service front doors) must stay pure
stdlib and must not load the process-pool machinery, which only
``repro evaluate --workers N`` (N > 1) and ``repro serve --processes N``
(N > 1) use. Both showed up in start-up time and resident memory, so
this pins them out of the import graph.

The same holds for the package's own code: packages resolve their
re-exported names on first use, so a discovery process never loads the
baseline, the matcher, the lifecycle algebra or the CLI handlers' code.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("networkx", "multiprocessing", "concurrent.futures.process")


def _loaded_after(statement: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    probe = "\n".join(
        ("import json, sys", statement, "print(json.dumps(sorted(sys.modules)))")
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _under(loaded: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [
        name
        for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in prefixes)
    ]


def test_import_loads_no_heavy_modules():
    loaded = _loaded_after("import repro, repro.__main__, repro.service.server")
    assert _under(loaded, FORBIDDEN) == []


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert [name for name in loaded if name.startswith("repro.")] == []


def test_discovery_skips_what_it_never_calls():
    loaded = _loaded_after("import repro.discovery.mapper")
    assert "repro.discovery.engine.stages" in loaded
    unused = (
        "repro.baseline",
        "repro.discovery.engine.clio",
        "repro.matching",
        "repro.evaluation",
        "repro.ingest",
        "repro.service",
        "repro.mappings.algebra",
        "repro.mappings.sql",
        "repro.mappings.serialize",
        "repro.mappings.verify",
        "repro.semantics.recover",
        "repro.cm.dot",
        "repro.relational.ddl",
        "repro.discovery.batch",
        "repro.discovery.incremental",
        "repro.trace.render",
    )
    assert _under(loaded, unused) == []


def test_cli_imports_its_handlers_lazily():
    loaded = _loaded_after("import repro.__main__")
    unused = (
        "repro.baseline",
        "repro.discovery",
        "repro.service",
        "repro.cm.dot",
        "repro.relational.ddl",
    )
    assert _under(loaded, unused) == []
