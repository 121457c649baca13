"""Smoke test of the benchmark: ``python -m pytest bench/ -q``.

Runs every workload once untraced and once traced under ``--quick`` (the
two runs side by side, to stay within half a minute) and checks that
every metric ``BENCHMARK.json`` names is emitted with its unit, that no
operation failed, and that a run leaves ``git status`` as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END, ROOT, WORKLOADS
from spans import LAYER_METRICS

RUN = [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"]


def git_status() -> str | None:
    if shutil.which("git") is None:
        return None
    status = subprocess.run(
        ["git", "status", "--porcelain"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return status.stdout if status.returncode == 0 else None


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    before = git_status()
    untraced = subprocess.Popen(
        [*RUN, "--out", str(tmp_path_factory.mktemp("untraced"))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    traced = subprocess.Popen(
        [*RUN, "--trace", "1", "--out", str(tmp_path_factory.mktemp("tr"))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    outputs = {}
    for key, child in (("untraced", untraced), ("traced", traced)):
        output, _ = child.communicate(timeout=120)
        assert child.returncode == 0, output
        outputs[key] = json.loads(output.strip().splitlines()[-1])
    return outputs, before, git_status()


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_layer_metric_names_match_benchmark():
    assert [m["name"] for m in benchmark()["per_layer"]] == [
        name for name, _ in LAYER_METRICS
    ]
    assert {m["name"] for m in benchmark()["end_to_end"]} == {
        name for name, _ in END_TO_END
    }


@pytest.mark.parametrize(
    "mode, section", [("untraced", "end_to_end"), ("traced", "per_layer")]
)
def test_every_metric_is_emitted_with_its_unit(quick_runs, mode, section):
    summary = quick_runs[0][mode]
    for workload in WORKLOADS:
        for metric in benchmark()[section]:
            emitted = summary["metrics"][f"{workload}.{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)


def test_no_operation_failed(quick_runs):
    for summary in quick_runs[0].values():
        assert summary["attempted"] > 0
        assert summary["failed"] == 0


def test_run_leaves_git_status_unchanged(quick_runs):
    _, before, after = quick_runs
    if before is None:
        pytest.skip("not a git checkout")
    assert after == before
