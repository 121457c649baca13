"""Shared fixtures for discovery tests: the paper's worked examples,
plus the uncached reference pipeline that cached runs are compared to."""

from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import pytest

from repro.datasets.paper_examples import (
    bookstore_example,
    employee_example,
    partof_example,
    project_example,
)
from repro.discovery.engine.stages import SemanticEngine
from repro.discovery.translate import _translate_uncached
from repro.perf.index import GraphIndex


@pytest.fixture(scope="module")
def bookstore():
    return bookstore_example()


@pytest.fixture(scope="module")
def employee():
    return employee_example()


@pytest.fixture(scope="module")
def employee_disjoint():
    return employee_example(disjoint_subclasses=True)


@pytest.fixture(scope="module")
def partof():
    return partof_example()


@pytest.fixture(scope="module")
def partof_plain():
    return partof_example(target_is_partof=False)


@pytest.fixture(scope="module")
def project():
    return project_example()


def _translate_reference(
    csg, covered, side, semantics, require_correspondence_tables=True
):
    return _translate_uncached(
        csg, covered, side, semantics, require_correspondence_tables
    )


@contextmanager
def _uncached_pipeline():
    """Run discovery with every memo replaced by the function it caches.

    Translations are computed by their uncached reference function,
    every ``GraphIndex.of`` call builds a fresh index (so no distance-
    oracle table is shared), and the stage cache is never consulted —
    the pipeline a cached run must stay byte-identical to.
    """
    with ExitStack() as stack:
        for owner, name, reference in (
            (GraphIndex, "of", GraphIndex),
            (SemanticEngine, "_cache", lambda self: None),
        ):
            stack.enter_context(patch.object(owner, name, reference))
        stack.enter_context(
            patch(
                "repro.discovery.engine.stages.translate_csg",
                _translate_reference,
            )
        )
        yield


@pytest.fixture(scope="session")
def uncached():
    """The :func:`_uncached_pipeline` context manager factory."""
    return _uncached_pipeline
