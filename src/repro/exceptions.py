"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle any library
failure while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """An ill-formed relational schema, table, or constraint."""


class InstanceError(ReproError):
    """A relational instance that does not conform to its schema."""


class ConceptualModelError(ReproError):
    """An ill-formed conceptual model (CM) or CM graph."""


class CardinalityError(ConceptualModelError):
    """An invalid cardinality specification (e.g. ``min > max``)."""


class SemanticsError(ReproError):
    """Invalid table semantics: a malformed s-tree or LAV specification."""


class QueryError(ReproError):
    """A malformed conjunctive query or an invalid query operation."""


class RewritingError(ReproError):
    """Query rewriting against table semantics failed or is impossible."""


class DiscoveryError(ReproError):
    """The mapping-discovery pipeline received inconsistent inputs."""


class CorrespondenceError(ReproError):
    """A correspondence references unknown tables or columns."""


class DatasetError(ReproError):
    """A benchmark dataset definition is internally inconsistent."""


class ValidationError(ReproError):
    """Pre-flight validation of a discovery input found errors.

    Raised by :func:`repro.validation.ValidationReport.raise_if_errors`;
    carries the structured diagnostics so callers can render or filter
    them instead of parsing the message.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        #: The :class:`repro.validation.Diagnostic` records behind the
        #: message (errors and warnings alike), in discovery order.
        self.diagnostics = tuple(diagnostics)


class IngestError(ReproError):
    """Live-database ingestion failed (bad database, dump, or CM).

    Raised by :mod:`repro.ingest` when a database cannot be opened, a
    SQL dump fails to execute, or introspected inputs cannot be turned
    into a discovery scenario. The message is safe to show to callers.
    """


class ServiceError(ReproError):
    """Base class for errors of the ``repro.service`` HTTP subsystem."""


class WireFormatError(ServiceError):
    """A service request does not conform to the JSON wire format.

    The server maps these to HTTP 400 responses; the message is safe to
    return to the caller (it never leaks internal state).
    """


class QueueFullError(ServiceError):
    """The service job queue is at capacity (backpressure; HTTP 429)."""


class ServiceCallError(ServiceError):
    """A service client call received a non-success HTTP response.

    Carries the HTTP ``status`` and, when the body was JSON, the decoded
    error ``payload`` so callers can inspect structured diagnostics.
    """

    def __init__(
        self, message: str, status: int = 0, payload: object = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload


class BatchError(ReproError):
    """Base class for failures of one scenario inside a batch run.

    Batch discovery never lets these abort the batch: they are captured
    as :class:`repro.discovery.batch.ScenarioFailure` records. The
    subclasses exist so per-scenario guards can distinguish *how* a
    scenario died.
    """


class ScenarioTimeout(BatchError):
    """A scenario exceeded its per-scenario wall-clock timeout."""


class WorkerCrashed(BatchError):
    """A worker process died (e.g. hard exit, OOM kill) mid-scenario."""
