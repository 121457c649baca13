"""Pre-fork multi-process serving: N workers, one listening socket.

The single-process :class:`~repro.service.server.ReproServer` bounds
discovery concurrency with a thread pool, but one Python process is
still one GIL — CPU-bound discovery saturates a core while requests
queue. :class:`PreForkSupervisor` scales past that with the classic
pre-fork model:

1. the supervisor binds the listening socket *first* (so ``--port 0``
   resolves before any worker exists and clients can connect the moment
   ``start`` returns);
2. it forks ``processes`` workers, each of which adopts the inherited
   socket into its own ``ThreadingHTTPServer`` — the kernel load-
   balances ``accept()`` across them;
3. each worker is a full :class:`~repro.service.server.MappingService`
   (own job queue, own in-memory caches); the **shared disk tier**
   (``ServiceConfig.cache_dir`` →
   :mod:`repro.discovery.engine.persist`) is the coherence point — a
   scenario computed by worker 2 is a disk hit for workers 0, 1, 3…

Lifecycle: the supervisor restarts workers that die unexpectedly and
translates SIGINT/SIGTERM into a drain — each worker gets SIGTERM,
finishes in-flight requests (``httpd.shutdown`` stops accepting, then
the job queue drains), and exits; stragglers are SIGKILLed after a
deadline.

Jobs: a worker's job ids carry its index, and each job it hands out
with a 202 is published under ``<metrics_dir>/jobs/`` (see
:mod:`repro.service.jobs`), so a poll answered by a sibling still finds
it.

Metrics: each worker stamps its ``/metrics`` output with a
``worker="N"`` label and publishes it as an atomic snapshot file under
``metrics_dir``; a scrape of any worker merges its own live series with
the siblings' last snapshots plus per-slot
``repro_service_pool_worker_up`` gauges, so one scrape sees the pool.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time

from repro.service.server import (
    POLL_SECONDS,
    MappingService,
    ServiceConfig,
    _Handler,
    _HTTPServer,
)

#: Listen backlog of the shared socket (matches ``_HTTPServer``).
BACKLOG = _HTTPServer.request_queue_size

#: Seconds a draining worker gets before SIGKILL.
DRAIN_TIMEOUT = 10.0

#: How often a worker republishes its metrics snapshot for siblings.
SNAPSHOT_INTERVAL = 1.0


def snapshot_path(metrics_dir: str, worker_index: int) -> str:
    """Where worker ``worker_index`` publishes its metrics snapshot."""
    return os.path.join(metrics_dir, f"worker-{worker_index}.prom")


class _SharedSocketHTTPServer(_HTTPServer):
    """A ``ThreadingHTTPServer`` serving on an inherited, bound socket.

    ``bind_and_activate=False`` skips bind/listen (the supervisor did
    both before forking); the socket the base class created unused is
    closed and replaced with the shared one. ``server_name`` /
    ``server_port`` are normally set by ``server_bind`` — fill them in
    by hand so handler logging keeps working.

    The shared socket is switched to non-blocking: every worker's
    selector wakes when a connection lands, but only one ``accept``
    wins. On a blocking socket the losers would sit *in* ``accept``
    until the next connection arrives — with N workers that serializes
    the accept path badly. Non-blocking, a lost race is an immediate
    ``BlockingIOError``, which ``_handle_request_noblock`` already
    treats as "nothing to do". (Accepted connections do not inherit
    the flag, so handler I/O stays blocking.)
    """

    def __init__(
        self, shared_socket: socket.socket, handler_class: type
    ) -> None:
        address = shared_socket.getsockname()[:2]
        super().__init__(address, handler_class, bind_and_activate=False)
        self.socket.close()
        shared_socket.setblocking(False)
        self.socket = shared_socket
        self.server_name, self.server_port = address


def _worker_main(config: ServiceConfig, shared_socket: socket.socket) -> int:
    """One forked worker's whole life; returns its exit code.

    SIGTERM/SIGINT trigger a drain: ``httpd.shutdown`` must run on a
    *different* thread than ``serve_forever`` (calling it from a signal
    handler on the serving thread deadlocks), so the handler hands it to
    a one-shot thread. After ``serve_forever`` returns, the job queue is
    stopped — in-flight discoveries finish, nothing new is accepted.
    """
    service = MappingService(config)
    httpd = _SharedSocketHTTPServer(shared_socket, _Handler)
    httpd.service = service  # type: ignore[attr-defined]

    def _drain(signum: int, frame: object) -> None:
        threading.Thread(
            target=httpd.shutdown, name="repro-worker-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    # Republish this worker's metrics snapshot on a heartbeat (not just
    # on scrapes): a sibling answering /metrics merges the *files*, so
    # without the heartbeat a never-scraped worker would look absent.
    stop_snapshots = threading.Event()

    def _publish_snapshots() -> None:
        while not stop_snapshots.wait(SNAPSHOT_INTERVAL):
            try:
                service.metrics_text()  # publishes as a side effect
            except Exception:  # pragma: no cover - metrics best-effort
                pass

    snapshotter = threading.Thread(
        target=_publish_snapshots, name="repro-worker-metrics", daemon=True
    )
    snapshotter.start()
    try:
        httpd.serve_forever(POLL_SECONDS)
    finally:
        stop_snapshots.set()
        try:
            httpd.server_close()
        except OSError:
            pass
        service.close()
    return 0


class PreForkSupervisor:
    """Bind once, fork ``processes`` workers, supervise until stopped."""

    def __init__(
        self, config: ServiceConfig | None = None, processes: int = 2
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        base = config or ServiceConfig()
        self.processes = processes
        self._metrics_dir_owned = base.metrics_dir is None
        metrics_dir = base.metrics_dir or tempfile.mkdtemp(
            prefix="repro-pool-metrics-"
        )
        self.config = dataclasses.replace(
            base, pool_size=processes, metrics_dir=metrics_dir
        )
        self._socket: socket.socket | None = None
        self._children: dict[int, int] = {}  # pid -> worker index
        self._stopping = False

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._socket is None:
            raise RuntimeError("supervisor not started")
        return self._socket.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PreForkSupervisor":
        """Bind the shared socket and fork every worker."""
        if self._socket is not None:
            return self
        sock = socket.create_server(
            (self.config.host, self.config.port),
            backlog=BACKLOG,
            reuse_port=False,
        )
        sock.set_inheritable(True)
        self._socket = sock
        for index in range(self.processes):
            self._spawn(index)
        return self

    def _spawn(self, index: int) -> None:
        assert self._socket is not None
        pid = os.fork()
        if pid == 0:
            # Child: run the worker and _exit — never return into the
            # supervisor's stack (atexit handlers, pytest internals).
            code = 1
            try:
                worker_config = dataclasses.replace(
                    self.config, worker_index=index
                )
                code = _worker_main(worker_config, self._socket)
            except KeyboardInterrupt:
                code = 0
            except BaseException as error:  # pragma: no cover - defensive
                print(
                    f"repro worker {index} crashed: "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr,
                    flush=True,
                )
            finally:
                os._exit(code)
        self._children[pid] = index

    def serve_forever(self) -> None:
        """Supervise: reap, respawn, and drain on SIGINT/SIGTERM.

        The reap loop polls ``waitpid(WNOHANG)`` plus a short sleep
        rather than blocking in ``waitpid`` — a blocked ``waitpid`` is
        auto-restarted after a handled signal (PEP 475), which would
        swallow the stop request until the next child exit.
        """
        if self._socket is None:
            self.start()

        def _request_stop(signum: int, frame: object) -> None:
            self._stopping = True

        previous = {
            sig: signal.signal(sig, _request_stop)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        try:
            while not self._stopping:
                self._reap(respawn=True)
                time.sleep(0.2)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()

    def _reap(self, respawn: bool) -> None:
        """Collect exited children; optionally restart their slots."""
        while self._children:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                self._children.clear()
                return
            if pid == 0:
                return
            index = self._children.pop(pid, None)
            if index is None:
                continue
            if respawn and not self._stopping:
                print(
                    f"repro worker {index} exited "
                    f"(status {status}); respawning",
                    file=sys.stderr,
                    flush=True,
                )
                self._spawn(index)

    def stop(self, drain_timeout: float = DRAIN_TIMEOUT) -> None:
        """SIGTERM every worker, wait for the drain, SIGKILL stragglers."""
        self._stopping = True
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + drain_timeout
        while self._children and time.monotonic() < deadline:
            self._reap(respawn=False)
            if self._children:
                time.sleep(0.05)
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while self._children:
            self._reap(respawn=False)
            if self._children:
                time.sleep(0.01)
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError as error:  # pragma: no cover - defensive
                if error.errno != errno.EBADF:
                    raise
            self._socket = None
        if self._metrics_dir_owned and self.config.metrics_dir:
            shutil.rmtree(self.config.metrics_dir, ignore_errors=True)

    def __enter__(self) -> "PreForkSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
