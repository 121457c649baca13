"""A thin stdlib (urllib) client for the mapping-discovery service.

Used by the test suite and the CI smoke job, and small enough to crib
for real callers. Non-2xx responses raise
:class:`~repro.exceptions.ServiceCallError` carrying the HTTP status
and the decoded error payload, so callers can branch on backpressure
(429) versus invalid input (400) without parsing messages.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.exceptions import ServiceCallError
from repro.service.metrics import parse_exposition


class ServiceClient:
    """Calls one running service at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 120.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Raw transport
    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
    ) -> tuple[int, Any]:
        """One HTTP exchange; returns ``(status, decoded body)``.

        Does not raise on HTTP error statuses — the convenience methods
        layer that on — but does raise :class:`ServiceCallError` when
        the server is unreachable.
        """
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, self._decode(response)
        except urllib.error.HTTPError as error:
            return error.code, self._decode(error)
        except urllib.error.URLError as error:
            raise ServiceCallError(
                f"service at {self.base_url} unreachable: {error.reason}"
            ) from error

    @staticmethod
    def _decode(response: Any) -> Any:
        body = response.read()
        content_type = response.headers.get("Content-Type", "")
        if "json" in content_type:
            return json.loads(body or b"null")
        return body.decode("utf-8")

    def _checked(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        accept: tuple[int, ...] = (200,),
    ) -> Any:
        status, body = self.request(method, path, payload)
        if status not in accept:
            message = (
                body.get("error", {}).get("message", "")
                if isinstance(body, dict)
                else str(body)
            )
            raise ServiceCallError(
                f"{method} {path} -> HTTP {status}: {message}",
                status=status,
                payload=body,
            )
        return body

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def discover(
        self,
        scenario: Mapping[str, Any],
        mode: str = "sync",
        use_cache: bool = True,
        timeout_seconds: float | None = None,
    ) -> dict[str, Any]:
        """``POST /discover``; accepts 200 (done) and 202 (async/pending)."""
        payload: dict[str, Any] = {
            "scenario": dict(scenario),
            "mode": mode,
            "use_cache": use_cache,
        }
        if timeout_seconds is not None:
            payload["timeout_seconds"] = timeout_seconds
        return self._checked(
            "POST", "/discover", payload, accept=(200, 202)
        )

    def introspect(
        self,
        source_sql: str,
        target_sql: str,
        cm: str | Mapping[str, Any],
        scenario_id: str | None = None,
        correspondences: list[str] | None = None,
        threshold: float | None = None,
        sample_rows: int | None = None,
        verify: bool = False,
        mode: str = "sync",
        use_cache: bool = True,
        **extra: Any,
    ) -> dict[str, Any]:
        """``POST /introspect``: SQL dumps + CM in, mappings out.

        ``cm`` is a registered dataset name or an inline model document
        — the server refuses filesystem paths, so callers with database
        *files* must dump them to SQL first (``sqlite3 db .dump``).
        """
        payload: dict[str, Any] = {
            "source_db": {"sql": source_sql},
            "target_db": {"sql": target_sql},
            "cm": cm if isinstance(cm, str) else dict(cm),
            "mode": mode,
            "use_cache": use_cache,
            **extra,
        }
        if scenario_id is not None:
            payload["id"] = scenario_id
        if correspondences is not None:
            payload["correspondences"] = list(correspondences)
        if threshold is not None:
            payload["threshold"] = threshold
        if sample_rows is not None:
            payload["sample_rows"] = sample_rows
        if verify:
            payload["verify"] = True
        return self._checked(
            "POST", "/introspect", payload, accept=(200, 202)
        )

    def validate(self, scenario: Mapping[str, Any]) -> dict[str, Any]:
        """``POST /validate``; 200 whether the scenario is clean or not."""
        return self._checked("POST", "/validate", {"scenario": dict(scenario)})

    def job(self, job_id: str) -> dict[str, Any]:
        return self._checked("GET", f"/jobs/{job_id}")

    def wait_for_job(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> dict[str, Any]:
        """Poll ``GET /jobs/<id>`` until the job leaves queued/running."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["state"] in ("done", "error"):
                return payload
            if time.monotonic() >= deadline:
                raise ServiceCallError(
                    f"job {job_id} still {payload['state']!r} after "
                    f"{timeout}s",
                    status=0,
                    payload=payload,
                )
            time.sleep(poll_seconds)

    def health(self) -> dict[str, Any]:
        return self._checked("GET", "/health")

    def metrics_text(self) -> str:
        return self._checked("GET", "/metrics")

    def metrics_values(self) -> dict[str, float]:
        """The metrics document parsed into ``{series: value}``."""
        return parse_exposition(self.metrics_text())
