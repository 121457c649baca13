"""The names ``bench/spans.py`` wraps exist where it looks them up.

The benchmark times each layer by replacing a module global or class
attribute with a recording wrapper (``LAYERS``), and reads per-call
facts from the wrapped call's arguments: a rewrite's ``limit`` and the
length of the list handed to ``keep_maximal``. A refactor that renames
or drops one of those names breaks traced benchmark runs, not the
engine, so this checks them here. ``bench/spans.py`` is loaded by path
and not edited.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro.perf as perf
from repro.datasets.paper_examples import bookstore_example
from repro.discovery import translate
from repro.discovery.mapper import SemanticMapper

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    missing = []
    for name, module_name, path, _ in spans.LAYERS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            if not hasattr(owner, part):
                missing.append(f"{name}: {module_name}.{path}")
                break
            owner = getattr(owner, part)
        else:
            assert callable(owner), f"{module_name}.{path} is not callable"
    assert not missing, f"names bench/spans.py cannot wrap: {missing}"


def test_rewrite_query_keeps_its_limit():
    assert "limit" in inspect.signature(translate.rewrite_query).parameters


def test_traced_discovery_reads_its_notes(spans):
    """A traced discovery yields the rewrite notes the metrics read.

    ``rewrite_query`` hands ``keep_maximal`` one candidate at a time, so
    the mean ``keep_maximal`` input is 1.
    """
    scenario = bookstore_example()
    recorder = spans.SpanRecorder()
    perf.clear_caches()
    recorder.install()
    try:
        SemanticMapper(
            scenario.source, scenario.target, scenario.correspondences
        ).discover()
    finally:
        recorder.uninstall()
    assert translate.rewrite_query.__module__ == "repro.queries.rewrite"
    metrics = spans.layer_metrics(recorder.spans, ops=1, op_seconds=1.0)
    assert metrics["rewrite.calls"] > 0
    assert metrics["rewrite.keep_maximal.input"] == 1.0
