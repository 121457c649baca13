"""Every docstring example in the ``repro`` source runs, module by module.

A docstring example is documentation a reader copies, so a stale one (a
call that now echoes its return value, a renamed argument) fails here
rather than in a reader's session.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _modules_with_doctests() -> list[str]:
    finder = doctest.DocTestFinder()
    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(info.name)
        if any(test.examples for test in finder.find(module)):
            names.append(info.name)
    return names


DOCTEST_MODULES = _modules_with_doctests()


def test_the_source_carries_doctests():
    assert "repro.queries.datalog" in DOCTEST_MODULES
    assert "repro.relational.schema" in DOCTEST_MODULES


@pytest.mark.parametrize("name", DOCTEST_MODULES)
def test_module_doctests_pass(name):
    results = doctest.testmod(importlib.import_module(name))
    assert results.attempted > 0
    assert results.failed == 0
