"""Unit and property tests for ``repro.validation``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correspondences import CorrespondenceSet
from repro.datasets.paper_examples import (
    bookstore_example,
    employee_example,
    partof_example,
    project_example,
)
from repro.discovery import Scenario, SemanticMapper
from repro.exceptions import ValidationError
from repro.relational.schema import Table
from repro.validation import (
    Diagnostic,
    ValidationReport,
    validate_correspondences,
    validate_scenario,
)


@pytest.fixture(scope="module")
def bookstore():
    return bookstore_example()


# ---------------------------------------------------------------------------
# Report mechanics
# ---------------------------------------------------------------------------
class TestValidationReport:
    def test_empty_report_is_ok(self):
        report = ValidationReport()
        assert report.ok
        assert report.render() == ""
        assert report.raise_if_errors() is report

    def test_errors_and_warnings_split(self):
        report = ValidationReport()
        report.warning("w.code", "just a warning")
        report.error("e.code", "a real problem", "here")
        assert not report.ok
        assert len(report.warnings) == 1
        assert len(report.errors) == 1
        assert "e.code [here]" in str(report.errors[0])

    def test_raise_if_errors_carries_diagnostics(self):
        report = ValidationReport()
        report.error("e.one", "first")
        report.error("e.two", "second")
        with pytest.raises(ValidationError) as exc_info:
            report.raise_if_errors()
        assert "2 validation error(s): error: e.one: first; " in str(
            exc_info.value
        )
        assert len(exc_info.value.diagnostics) == 2
        assert isinstance(exc_info.value.diagnostics[0], Diagnostic)

    def test_error_summary_shows_three_then_counts(self):
        report = ValidationReport()
        for index in range(5):
            report.error(f"e.{index}", "bad")
        assert report.error_summary() == (
            "error: e.0: bad; error: e.1: bad; error: e.2: bad; "
            "... (2 more)"
        )

    def test_warnings_do_not_raise(self):
        report = ValidationReport()
        report.warning("w.code", "heads up")
        report.raise_if_errors()


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------
class TestValidInputsPass:
    def test_bookstore_pair_is_clean(self, bookstore):
        report = validate_correspondences(
            bookstore.correspondences, bookstore.source, bookstore.target
        )
        assert report.ok
        assert not report.warnings

    def test_scenario_wrapper_tags_scenario_id(self, bookstore):
        scenario = Scenario.create(
            "demo",
            bookstore.source,
            bookstore.target,
            CorrespondenceSet(),
        )
        report = validate_scenario(scenario)
        assert report.ok  # empty set is only a warning
        (warning,) = report.warnings
        assert warning.code == "correspondence.empty"
        assert warning.location.startswith("demo")


class TestCorrespondenceChecks:
    def test_dangling_column_is_error(self, bookstore):
        bad = CorrespondenceSet.parse(["person.ghost <-> hasbooksoldat.aname"])
        report = validate_correspondences(
            bad, bookstore.source, bookstore.target
        )
        codes = [d.code for d in report.errors]
        assert codes == ["correspondence.source-column"]

    def test_table_without_semantics_is_error(self, bookstore):
        # Simulate a loader that grew the schema after building semantics:
        # the column exists, but no s-tree can lift it.
        bookstore.source.schema.add_table(Table("orphan", ["c"]))
        try:
            bad = CorrespondenceSet.parse(["orphan.c <-> hasbooksoldat.aname"])
            report = validate_correspondences(
                bad, bookstore.source, bookstore.target
            )
            codes = [d.code for d in report.errors]
            assert codes == ["correspondence.source-semantics"]
        finally:
            del bookstore.source.schema._tables["orphan"]

    def test_empty_set_is_warning_only(self, bookstore):
        report = validate_correspondences(
            CorrespondenceSet(), bookstore.source, bookstore.target
        )
        assert report.ok
        assert [d.code for d in report.warnings] == ["correspondence.empty"]

    def test_mapper_init_raises_validation_error(self, bookstore):
        bad = CorrespondenceSet.parse(["person.ghost <-> hasbooksoldat.aname"])
        with pytest.raises(ValidationError) as exc_info:
            SemanticMapper(bookstore.source, bookstore.target, bad)
        assert any(
            d.code == "correspondence.source-column"
            for d in exc_info.value.diagnostics
        )


# ---------------------------------------------------------------------------
# Property: every valid generated scenario validates cleanly
# ---------------------------------------------------------------------------
_EXAMPLES = {
    "bookstore": bookstore_example(),
    "employee": employee_example(),
    "partof": partof_example(),
    "project": project_example(),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_EXAMPLES)),
    picks=st.sets(st.integers(min_value=0, max_value=31), min_size=1),
)
def test_validation_accepts_every_generated_valid_scenario(name, picks):
    """Any nonempty subset of a valid example's correspondences, over the
    example's own semantics, must validate without errors."""
    example = _EXAMPLES[name]
    items = list(example.correspondences)
    chosen = sorted({index % len(items) for index in picks})
    subset = CorrespondenceSet(items[index] for index in chosen)
    scenario = Scenario.create(
        f"gen-{name}", example.source, example.target, subset
    )
    report = validate_scenario(scenario)
    assert report.ok, report.render()
    assert not report.warnings
