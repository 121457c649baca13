"""Start ``python -m repro serve`` with the layer wrappers of ``spans.py``.

Used by the traced ``service_warm`` run. The wrappers start uninstalled;
``SIGUSR1`` installs them and ``SIGUSR2`` removes them, so the load
generator can alternate traced and untraced phases against one server.
On shutdown (``SIGINT``) the recorded spans are written to ``--spans``.

Usage: ``python bench/service_boot.py --spans FILE serve [serve options]``
"""

from __future__ import annotations

import argparse
import signal
import sys

from spans import SpanRecorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True)
    args, serve_argv = parser.parse_known_args(argv)
    from repro.__main__ import main as repro_main

    recorder = SpanRecorder()
    # Import every wrapped module now, not inside a signal handler.
    recorder.install()
    recorder.uninstall()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.install())
    signal.signal(signal.SIGUSR2, lambda *_: recorder.uninstall())
    try:
        return repro_main(serve_argv)
    finally:
        recorder.uninstall()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
