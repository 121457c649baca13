"""A cooperative wall-clock deadline for discovery's searches.

:func:`deadline` arms a limit for the code it wraps; the searches that
can blow up call :func:`check_deadline` at their loop heads, which
raises :class:`~repro.exceptions.ScenarioTimeout` once the limit has
passed. The checks sit in the targeted Steiner search (each heap pop),
the lossy-path branch-and-bound (each expansion) and the inverse-rule
rewrite walk (each rule combination it reaches).

The limit lives in a :class:`~contextvars.ContextVar`, so it holds for
the thread that armed it, whether that is a process's main thread, a
process-pool worker or a service job thread. A check between two loop
iterations never lands inside a memo update, so a run cut short leaves
every cache whole. Code that runs no search (a ``Scenario`` subclass
that sleeps) is not interrupted.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import monotonic
from typing import Iterator

from repro.exceptions import ScenarioTimeout

#: ``(monotonic deadline, scenario id, limit in seconds)`` while armed.
_armed: ContextVar[tuple[float, str, float] | None] = ContextVar(
    "repro_deadline", default=None
)


@contextmanager
def deadline(seconds: float | None, scenario_id: str) -> Iterator[None]:
    """Arm a ``seconds`` wall-clock limit for ``scenario_id``'s run.

    ``None`` arms nothing.
    """
    if seconds is None:
        yield
        return
    token = _armed.set((monotonic() + seconds, scenario_id, seconds))
    try:
        yield
    finally:
        _armed.reset(token)


def check_deadline() -> None:
    """Raise :class:`ScenarioTimeout` if the armed limit has passed."""
    armed = _armed.get()
    if armed is not None and monotonic() >= armed[0]:
        raise ScenarioTimeout(
            f"scenario {armed[1]!r} exceeded the {armed[2]}s "
            f"wall-clock limit"
        )
