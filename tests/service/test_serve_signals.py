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


#: Runs ``repro serve`` with two compute processes and a stdout whose
#: banner write raises ``KeyboardInterrupt``, as a SIGINT landing during
#: the banner does; then reports the exit code and the live children.
_BANNER_INTERRUPTED = """\
import multiprocessing
import sys

from repro.__main__ import main


class InterruptedBanner:
    def write(self, text):
        if "listening on" in text:
            raise KeyboardInterrupt
        return sys.__stdout__.write(text)

    def flush(self):
        sys.__stdout__.flush()


if __name__ == "__main__":
    sys.stdout = InterruptedBanner()
    code = main(["serve", "--port", "0", "--processes", "2"])
    alive = len(multiprocessing.active_children())
    print(f"exit {code}, {alive} child(ren) alive", file=sys.stderr)
    sys.exit(code)
"""


def test_an_interrupt_during_the_banner_exits_cleanly(tmp_path):
    script = tmp_path / "interrupted_banner.py"
    script.write_text(_BANNER_INTERRUPTED, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "exit 0, 0 child(ren) alive" in proc.stderr
