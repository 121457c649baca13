"""The service's bounded job queue, its job threads and compute pool.

Discovery requests become :class:`Job` records on a bounded
``queue.Queue``; a fixed pool of daemon *threads* drains it. With one
compute process (the default) each thread runs its scenario through
:func:`repro.discovery.batch.discover_many`, sharing the
process's warm :class:`~repro.perf.GraphIndex` registry and translation
caches. With ``processes > 1`` each thread hands the scenario to a
:class:`ComputePool` of long-lived processes instead, which run the
batch layer's guarded entry; the job table, the result cache,
coalescing and the metrics stay in this one process either way.

Admission control happens at submit time, single-flight style:

1. a content-addressed cache hit returns a job born finished, with no
   wait event of its own;
2. an identical scenario already queued or running is *coalesced* —
   the caller gets the same :class:`Job` and waits on the same event,
   so N concurrent identical requests cost one discovery run;
3. otherwise the job is enqueued, or :class:`QueueFullError` raised
   when the queue is at capacity (the server turns that into HTTP 429).

Failures inside a job reuse the batch layer's fault isolation: a
failing scenario produces a structured error payload, never a dead
worker thread. A compute process that dies fails the job it was
running with a ``WorkerCrashed`` record; the job is not retried.

Submitting does not make a job pollable. Only :meth:`JobQueue.retain`
puts a job in the ``GET /jobs/<id>`` table, and the server calls it
exactly when a 202 response hands the id out. A sync request answered
inline leaves no record behind, and a finished job keeps only what
:meth:`Job.to_wire` reads.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import queue
import signal
import threading
import time
import warnings
from collections import OrderedDict

from repro.discovery.batch import (
    Scenario,
    ScenarioFailure,
    _guarded_run,
    discover_many,
    scenario_fingerprint,
)
from repro.discovery.engine import persist
from repro.discovery.fingerprint import semantics_content_key
from repro.exceptions import QueueFullError, WorkerCrashed
from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.wire import failure_to_wire, result_to_wire

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"

_STOP = object()

#: The one wait event every finished job shares: set once, never
#: cleared, so a finished job holds no event of its own.
_FINISHED = threading.Event()
_FINISHED.set()

#: ``DiscoveryResult.stats`` key prefixes of the per-stage cache
#: breakdown (see ``repro.perf.counters``). The aggregate keys
#: ``stage_cache_hits`` / ``stage_cache_misses`` do *not* match these
#: prefixes (trailing ``s`` vs ``_``), so they are never double-counted
#: as a stage label.
_STAGE_HIT_PREFIX = "stage_cache_hit_"
_STAGE_MISS_PREFIX = "stage_cache_miss_"
_DISK_HIT_PREFIX = "stage_cache_disk_hit_"


def observe_run_stats(metrics: ServiceMetrics, stats: dict) -> None:
    """Feed one run's ``DiscoveryResult.stats`` into the service metrics.

    Two vocabularies cross here, both derived from the engine's stage
    names: every ``time_<phase>_s`` timing becomes a
    ``repro_service_phase_seconds`` observation labelled with the phase,
    and every ``stage_cache_hit_<stage>`` / ``stage_cache_miss_<stage>``
    counter becomes a ``stage_cache_hits_total`` /
    ``stage_cache_misses_total`` increment labelled with the stage.
    The disk tier's ``stage_cache_disk_hit_<stage>`` breakdown maps to
    ``stage_cache_disk_hits_total`` the same way. Every integer counter
    also adds to the ``repro_perf_`` totals, so ``/metrics`` reports
    the same algorithmic counts whichever process ran the discovery.
    """
    for key, value in stats.items():
        if key.startswith("time_") and key.endswith("_s"):
            metrics.observe_phase(key[5:-2], float(value))
            continue
        if not isinstance(value, int):
            continue
        metrics.add_perf(key, value)
        if key.startswith(_DISK_HIT_PREFIX):
            metrics.inc(
                "stage_cache_disk_hits_total",
                value,
                stage=key[len(_DISK_HIT_PREFIX):],
            )
        elif key.startswith(_STAGE_HIT_PREFIX):
            metrics.inc(
                "stage_cache_hits_total",
                value,
                stage=key[len(_STAGE_HIT_PREFIX):],
            )
        elif key.startswith(_STAGE_MISS_PREFIX):
            metrics.inc(
                "stage_cache_misses_total",
                value,
                stage=key[len(_STAGE_MISS_PREFIX):],
            )


class Job:
    """One discovery request's lifecycle record.

    ``scenario`` and ``fingerprint`` are the worker's inputs; finishing
    drops them, together with the job's own wait event.
    """

    __slots__ = (
        "job_id",
        "scenario_id",
        "fingerprint",
        "scenario",
        "state",
        "cached",
        "result",
        "error",
        "submitted_at",
        "started_at",
        "finished_at",
        "_done",
    )

    def __init__(
        self, job_id: str, scenario: Scenario, fingerprint: str
    ) -> None:
        self.job_id = job_id
        self.scenario_id = scenario.scenario_id
        self.fingerprint: str | None = fingerprint
        self.scenario: Scenario | None = scenario
        self.state = QUEUED
        self.cached = False
        self.result: dict | None = None
        self.error: dict | None = None
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._done = threading.Event()

    @classmethod
    def cache_hit(cls, job_id: str, scenario_id: str, payload: dict) -> "Job":
        """A job served from the result cache: born finished."""
        job = cls.__new__(cls)
        job.job_id = job_id
        job.scenario_id = scenario_id
        job.fingerprint = job.scenario = None
        job.state = DONE
        job.cached = True
        job.result = payload
        job.error = None
        job.submitted_at = job.finished_at = time.monotonic()
        job.started_at = None
        job._done = _FINISHED
        return job

    # -- transitions (called by the queue/workers only) -----------------
    def mark_running(self) -> None:
        self.state = RUNNING
        self.started_at = time.monotonic()

    def finish(self, payload: dict) -> None:
        self.result = payload
        self.state = DONE
        self._settle()

    def fail(self, error_payload: dict) -> None:
        self.error = error_payload
        self.state = ERROR
        self._settle()

    def _settle(self) -> None:
        # Swap in the shared event before setting the old one: a thread
        # already blocked on the old event still wakes, and later waits
        # return at once.
        self.finished_at = time.monotonic()
        self.scenario = self.fingerprint = None
        waiting, self._done = self._done, _FINISHED
        waiting.set()

    # -- interrogation ---------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finished; ``False`` on timeout."""
        return self._done.wait(timeout)

    def to_wire(self) -> dict:
        """The ``GET /jobs/<id>`` payload."""
        payload: dict = {
            "job_id": self.job_id,
            "scenario_id": self.scenario_id,
            "state": self.state,
            "cached": self.cached,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        if self.started_at is not None:
            payload["queue_seconds"] = round(
                self.started_at - self.submitted_at, 6
            )
        if self.finished_at is not None and self.started_at is not None:
            payload["run_seconds"] = round(
                self.finished_at - self.started_at, 6
            )
        return payload


#: How many schemas' semantics the pool keeps pickled, and each compute
#: process keeps unpickled, least recently used first out.
SEMANTICS_KEPT = 32

#: Compute-process state: the semantics objects of the schemas seen
#: lately, by content key. Graph indexes and memos are keyed by object
#: identity, so a job that unpickled fresh copies would rebuild them
#: (on the paper cases, six times the discovery time).
_SEMANTICS: OrderedDict = OrderedDict()


def _kept(table: OrderedDict, key: str, make):
    value = table.pop(key, None)
    if value is None:
        value = make()
    table[key] = value
    if len(table) > SEMANTICS_KEPT:
        table.popitem(last=False)
    return value


def _run_in_compute_process(
    shell: Scenario,
    source: tuple[str, bytes],
    target: tuple[str, bytes],
    timeout_seconds: float | None,
) -> tuple[str, object]:
    """The batch layer's guarded run of ``shell`` over this process's
    semantics objects; ``source``/``target`` are ``(content key,
    pickle)`` pairs, unpickled only for a schema not kept here."""
    scenario = dataclasses.replace(
        shell,
        source=_kept(_SEMANTICS, source[0], lambda: pickle.loads(source[1])),
        target=_kept(_SEMANTICS, target[0], lambda: pickle.loads(target[1])),
    )
    return _guarded_run(scenario, timeout_seconds)


def _compute_main(conn, cache_dir: str | None) -> None:
    """One compute process: run each scenario that arrives on ``conn``.

    Ctrl-C in a terminal reaches the whole process group; the HTTP
    process drains on it, so a compute process must not die mid-job.
    The process ends when the server closes its end of the pipe, or
    dies without closing it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    persist.configure(cache_dir)
    try:
        while True:
            conn.send(_run_in_compute_process(*conn.recv()))
    except (EOFError, OSError):
        pass


class ComputePool:
    """Long-lived compute processes that run the service's discoveries.

    Each process serves one pipe: a job thread takes an idle process,
    sends it the scenario and blocks until the outcome comes back, with
    no thread in between. The processes start with the ``forkserver``
    method, because the HTTP process already runs threads, which
    ``fork`` would copy mid-flight. A job runs the batch layer's
    guarded entry, so the job timeout and per-scenario failure records
    behave as in a serial run. A process that dies fails the one job it
    was running with ``WorkerCrashed``; a fresh process takes its place
    and the scenario is not re-run.
    """

    def __init__(self, processes: int, cache_dir: str | None = None) -> None:
        # Imported here so a single-process server never loads
        # multiprocessing.
        import multiprocessing

        self._cache_dir = cache_dir
        self._context = multiprocessing.get_context("forkserver")
        self._context.set_forkserver_preload(["repro.discovery.batch"])
        self._lock = threading.Lock()
        self._pickled: OrderedDict[str, bytes] = OrderedDict()
        self._workers: set = set()
        self._idle: queue.Queue = queue.Queue()
        self._closed = False
        for _ in range(processes):
            self._idle.put(self._start())

    def _start(self):
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_compute_main,
            args=(theirs, self._cache_dir),
            name="repro-compute",
            daemon=True,
        )
        process.start()
        theirs.close()
        with self._lock:
            self._workers.add((process, ours))
        return process, ours

    def _shipped(self, semantics) -> tuple[str, bytes]:
        key = semantics_content_key(semantics)
        with self._lock:
            return key, _kept(
                self._pickled, key, lambda: pickle.dumps(semantics)
            )

    def run(
        self, scenario: Scenario, timeout_seconds: float | None
    ) -> tuple[str, object]:
        """Run one scenario in a compute process; never raises for it.

        Returns ``("ok", DiscoveryResult)`` or ``("error",
        ScenarioFailure)``, like the guarded entry it runs.
        """
        worker = self._idle.get()
        process, conn = worker
        try:
            conn.send(
                (
                    dataclasses.replace(scenario, source=None, target=None),
                    self._shipped(scenario.source),
                    self._shipped(scenario.target),
                    timeout_seconds,
                )
            )
            return conn.recv()
        except (EOFError, OSError):
            process.join(1.0)
            with self._lock:
                self._workers.discard(worker)
            if not self._closed:
                worker = self._start()
            return "error", ScenarioFailure(
                scenario_id=scenario.scenario_id,
                error_type=WorkerCrashed.__name__,
                message=(
                    f"compute process died (exit code {process.exitcode})"
                ),
            )
        finally:
            self._idle.put(worker)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the processes.

        ``wait=False`` is for jobs still running when the server's stop
        deadline passed: their processes are terminated, not awaited.
        """
        self._closed = True
        with self._lock:
            workers = list(self._workers)
        for process, conn in workers:
            if wait:
                conn.close()  # an idle process ends on the closed pipe
            else:
                process.terminate()
        for process, _ in workers:
            process.join()


class JobQueue:
    """Bounded queue + worker pool with single-flight content dedup.

    Parameters
    ----------
    workers:
        Worker-thread count. ``0`` is allowed (nothing drains the
        queue) and exists for backpressure tests; servers use >= 1.
    capacity:
        Maximum number of queued-but-not-started jobs.
    cache:
        The shared :class:`ResultCache`; results are stored under the
        scenario's content fingerprint as they complete.
    metrics:
        The shared :class:`ServiceMetrics` sink.
    timeout_seconds:
        Per-job wall-clock limit (``None`` disables it). It stops a
        job's discovery on the worker thread or in the compute process
        and fails the job with ``ScenarioTimeout`` (see
        :mod:`repro.deadline`).
    history:
        How many retained jobs stay visible to ``GET /jobs/<id>``. Only
        jobs passed to :meth:`retain` count; the oldest is dropped
        first.
    pool:
        Optional :class:`ComputePool`. With one, the worker threads run
        discovery in its processes instead of on themselves; the queue
        owns it from then on and shuts it down in :meth:`stop`.
    """

    def __init__(
        self,
        workers: int,
        capacity: int,
        cache: ResultCache,
        metrics: ServiceMetrics,
        timeout_seconds: float | None = None,
        history: int = 4096,
        pool: ComputePool | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {timeout_seconds}"
            )
        self.workers = workers
        self.capacity = capacity
        self._cache = cache
        self._metrics = metrics
        self._timeout_seconds = timeout_seconds
        self._history = history
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._inflight: dict[str, Job] = {}
        self._unfinished: set[Job] = set()
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._counter = itertools.count(1)
        self._pool = pool
        self._threads = [
            threading.Thread(
                target=self._worker,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, scenario: Scenario, use_cache: bool = True
    ) -> tuple[Job, bool]:
        """Admit one scenario; returns ``(job, served_from_cache)``.

        ``served_from_cache`` is true for both stored-result hits and
        coalesced joins onto an in-flight identical job — either way no
        new discovery run was started for this request. The job is not
        pollable until it is passed to :meth:`retain`.

        Raises
        ------
        QueueFullError
            When the scenario needs a new job but the queue is full.
        """
        fingerprint = scenario_fingerprint(scenario)
        if self._stopping.is_set():
            self._metrics.inc("jobs_rejected_total")
            raise QueueFullError("service is shutting down; retry later")
        with self._lock:
            if use_cache:
                payload = self._cache.get(fingerprint)
                if payload is not None:
                    self._metrics.inc("cache_hits_total")
                    job = Job.cache_hit(
                        self._next_id(), scenario.scenario_id, payload
                    )
                    return job, True
                existing = self._inflight.get(fingerprint)
                if existing is not None:
                    self._metrics.inc("cache_hits_total")
                    self._metrics.inc("cache_coalesced_total")
                    return existing, True
                self._metrics.inc("cache_misses_total")
            job = Job(self._next_id(), scenario, fingerprint)
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self._metrics.inc("jobs_rejected_total")
                raise QueueFullError(
                    f"job queue is at capacity ({self.capacity} queued); "
                    f"retry later"
                ) from None
            self._unfinished.add(job)
            self._inflight[fingerprint] = job
            return job, False

    def _next_id(self) -> str:
        return f"job-{next(self._counter):08d}"

    def retain(self, job: Job) -> None:
        """Make ``job`` pollable at ``GET /jobs/<id>``.

        The server calls this when a 202 response hands the job's id out
        (an async accept, or a sync wait that timed out). The table
        keeps the ``history`` most recently retained jobs.
        """
        with self._lock:
            self._jobs[job.job_id] = job
            while len(self._jobs) > self._history:
                self._jobs.popitem(last=False)

    # ------------------------------------------------------------------
    # Interrogation
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def depth(self) -> int:
        """Jobs waiting in the queue (not yet picked up by a worker)."""
        return self._queue.qsize()

    def state_counts(self) -> dict[str, int]:
        """Queued and running jobs, retained or not, plus the finished
        jobs still pollable."""
        with self._lock:
            unfinished = list(self._unfinished)
            retained = list(self._jobs.values())
        counts = {QUEUED: 0, RUNNING: 0, DONE: 0, ERROR: 0}
        for job in unfinished:
            if job.state in (QUEUED, RUNNING):
                counts[job.state] += 1
        for job in retained:
            if job.state in (DONE, ERROR):
                counts[job.state] += 1
        return counts

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            job: Job = item
            # Finishing clears the job's fingerprint; the in-flight
            # cleanup below still needs it.
            fingerprint = job.fingerprint
            try:
                if self._stopping.is_set():
                    # Drain the backlog fast so stop() can enqueue its
                    # sentinels even when the queue was full at shutdown.
                    job.fail(
                        {
                            "type": "ServiceStopped",
                            "message": "service shut down before this job ran",
                        }
                    )
                    self._metrics.inc("jobs_failed_total")
                else:
                    self._run(job, fingerprint)
            finally:
                with self._lock:
                    self._unfinished.discard(job)
                    if self._inflight.get(fingerprint) is job:
                        del self._inflight[fingerprint]
                self._queue.task_done()

    def _run(self, job: Job, fingerprint: str) -> None:
        job.mark_running()
        self._metrics.inc("discovery_invocations_total")
        try:
            if self._pool is None:
                batch = discover_many(
                    [job.scenario], timeout_seconds=self._timeout_seconds
                )
                failure = batch.failures[0] if batch.failures else None
                result = None if failure else batch.results[0][1]
            else:
                kind, outcome = self._pool.run(
                    job.scenario, self._timeout_seconds
                )
                failure, result = (
                    (outcome, None) if kind == "error" else (None, outcome)
                )
            if failure is not None:
                job.fail(failure_to_wire(failure))
                self._metrics.inc("jobs_failed_total")
            else:
                observe_run_stats(self._metrics, result.stats)
                payload = result_to_wire(result)
                # Store before dropping the in-flight marker so a
                # concurrent submit always finds the result in one
                # of the two places (no recompute window).
                self._cache.put(fingerprint, payload)
                job.finish(payload)
                self._metrics.inc("jobs_completed_total")
        except Exception as error:  # defensive: batch isolates faults
            job.fail({"type": type(error).__name__, "message": str(error)})
            self._metrics.inc("jobs_failed_total")

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self, timeout: float | None = 5.0) -> None:
        """Stop every worker thread without blocking indefinitely.

        New submits are rejected immediately; workers fast-fail any
        still-queued jobs instead of running them. Sentinels are
        enqueued with a deadline (never a blocking ``put``), so a queue
        that is at capacity when shutdown starts — exactly the
        429-backpressure situation — cannot wedge ``stop()``. If the
        deadline passes (e.g. a worker is still inside a scenario run
        with no job timeout, or one longer than ``timeout``), a
        ``RuntimeWarning`` is issued and the daemon workers are
        abandoned to process exit. The compute pool, if any, stops
        last; past the deadline its processes are terminated.
        """
        self._stopping.set()
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        stalled = 0
        for _ in self._threads:
            try:
                if deadline is None:
                    self._queue.put(_STOP)
                else:
                    remaining = max(0.0, deadline - time.monotonic())
                    self._queue.put(_STOP, timeout=remaining)
            except queue.Full:
                stalled += 1
        for thread in self._threads:
            if deadline is None:
                thread.join()
            else:
                thread.join(max(0.0, deadline - time.monotonic()))
        alive = sum(1 for thread in self._threads if thread.is_alive())
        if self._pool is not None:
            self._pool.shutdown(wait=not alive)
        if stalled or alive:
            warnings.warn(
                f"JobQueue.stop() deadline ({timeout}s) passed with "
                f"{stalled} stop sentinel(s) unenqueued and {alive} "
                f"worker thread(s) still running; daemon threads will "
                f"be reaped at process exit",
                RuntimeWarning,
                stacklevel=2,
            )
