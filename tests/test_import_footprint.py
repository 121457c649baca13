"""The package's import footprint: nothing heavy loads at import time.

``import repro`` (and the CLI and service front doors) must stay pure
stdlib and must not load the process-pool machinery, which only the
``workers > 1`` paths use. Both showed up in start-up time and resident
memory, so this pins them out of the import graph.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("networkx", "multiprocessing", "concurrent.futures.process")

PROBE = """
import json, sys
import repro, repro.__main__, repro.service.server
print(json.dumps(sorted(sys.modules)))
"""


def test_import_loads_no_heavy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout)
    heavy = [
        name
        for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    ]
    assert heavy == []
