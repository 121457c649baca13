"""``python -m repro serve`` stops on SIGINT however it was started.

A non-interactive shell starts background jobs (``repro serve &``) with
SIGINT ignored, and Python keeps an inherited ignore. The server must
still drain and exit on ``kill -INT``, as CI's service smoke test stops
it.
"""

import os
import signal
import subprocess
import sys
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def test_a_server_started_with_sigint_ignored_exits_on_sigint():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        preexec_fn=_ignore_sigint,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on " in banner, banner
        url = banner.split("listening on ", 1)[1].split(" ", 1)[0]
        # Signal a serving server, as CI does after its health check: a
        # signal that lands between the banner and the serve loop is a
        # different (start-up) case.
        with urllib.request.urlopen(url + "/health", timeout=10) as reply:
            assert reply.status == 200
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
