"""The benchmark runner: five workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python bench/run.py                         # every workload, untraced
    python bench/run.py --workload paper_batch --seed 3 --out DIR
    python bench/run.py --trace 1               # per-layer metrics
    python bench/run.py --quick                 # one short pass each
    python bench/run.py --compare PARENT_DIR CHANGE_DIR
    python bench/run.py --record-golden         # rewrite bench/golden.json

A run measures for ``run_seconds`` of ``BENCHMARK.json``. ``--seconds``
is accepted only with that value, so the parent and the change of a
comparison always run for the same length.

Each workload runs in its own child process (``workloads.py``), one
after another. The child is started several times per run: every start
until it reports ready is one set-up sample, and the last start goes on
to measure. The runner prints every metric by name with its unit, writes
``report.json`` under ``--out`` (default: a fresh temporary directory
under ``.bench_out/`` at the repository root, which git ignores), and
prints one JSON summary as the last line of standard output. It exits
non-zero without that line when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYER_METRICS
from stats import quartiles, relative_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = (
    "paper_batch",
    "deep_rewrite",
    "wide_schema",
    "edit_rediscover",
    "service_warm",
)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Timings every untraced run records in its details and prints. They
#: did not repeat within ``TIMING_BOUND`` on the calibration machine, so
#: ``BENCHMARK.json`` lists them as per-layer metrics, without a bound;
#: ``--compare`` still judges them, against that bound.
TIMINGS = (("throughput_ops", "higher"), ("latency_p50_ms", "lower"))
TIMING_BOUND = 0.10
UNITS = dict(END_TO_END + LAYER_METRICS)
#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 120.0
#: Slack past ``--seconds`` for warm-up, the last pass and shutdown.
RUN_SLACK = 120.0


class ChildFailed(RuntimeError):
    pass


def child_environment() -> dict:
    env = dict(os.environ)
    source = str(ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = source + (os.pathsep + existing if existing else "")
    return env


def start_child(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a workload child; return it and its seconds to ``ready``."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *argv],
        cwd=ROOT,
        env=child_environment(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    readable, _, _ = select.select([child.stdout], [], [], SETUP_TIMEOUT)
    line = child.stdout.readline() if readable else ""
    elapsed = time.perf_counter() - started
    if line.strip() != "ready":
        stop_child(child)
        raise ChildFailed(f"{' '.join(argv)}: child never became ready")
    return child, elapsed


def stop_child(child: subprocess.Popen) -> None:
    if child.poll() is None:
        child.kill()
    child.communicate()


def finish_child(child: subprocess.Popen, command: str, timeout: float) -> str:
    """Send ``command`` to a ready child and return what it prints."""
    try:
        output, _ = child.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_child(child)
        raise ChildFailed(f"no answer to {command!r} within {timeout}s")
    if child.returncode != 0:
        raise ChildFailed(f"child exited {child.returncode} after {command!r}")
    return output


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out: Path,
    setup_samples: int,
) -> dict:
    """One measured run of ``name``: set-up samples, then the workload."""
    argv = [
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(int(trace)),
        "--out", str(out / name),
    ]
    setups = []
    for _ in range(setup_samples - 1):
        child, elapsed = start_child(argv)
        setups.append(elapsed)
        finish_child(child, "exit", SETUP_TIMEOUT)
    child, elapsed = start_child(argv)
    setups.append(elapsed)
    lines = finish_child(child, "go", seconds + RUN_SLACK).splitlines()
    if not lines:
        raise ChildFailed(f"{name}: no result line")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        setup_samples=setups,
    )
    return result


def print_run(result: dict) -> None:
    label = f"{result['workload']} (seed {result['seed']})"
    print(
        f"{label}: {result['attempted']} ops, {result['failed']} failed"
        + ("" if result["valid"] else ", timings invalid (generator late)")
    )
    shown = dict(result["metrics"])
    if not result["trace"]:
        shown.update((name, result["details"][name]) for name, _ in TIMINGS)
    for name, value in shown.items():
        print(f"  {name:<36} {value:>14.4f} {UNITS[name]}")
    if result["trace"]:
        samples = result["details"]["traced_samples"]
        print(f"  ({samples} traced ops; per-layer values are per op)")


def summary_line(results: list[dict], qualify: bool) -> dict:
    """The final JSON line; with ``qualify`` each metric name is prefixed
    by its workload.

    ``correct`` speaks of the outputs only. A run whose load generator
    fell behind (``valid`` false) still checked every output; what it
    spoils is its timings, which ``--compare`` then leaves unresolved.
    """
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": {
            (f"{result['workload']}.{name}" if qualify else name): {
                "value": value,
                "unit": UNITS[name],
            }
            for result in results
            for name, value in result["metrics"].items()
        },
    }


# ----------------------------------------------------------------------
# --compare: the no-regression and gain rules for a change
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """Classify one (metric, workload) pair; returns (verdict, wins, pairs).

    A gain needs at least ten pairs, a 9/10 win rate (ties count for
    neither side) and a median difference beyond the parent's
    interquartile distance. Otherwise a spread wider than the bound is
    unresolved unless every change run beats every parent run, and a
    median worse by more than the bound is a regression.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_first, p_median, p_third = quartiles(parent)
    c_median = statistics.median(change)
    improvement = sign * (c_median - p_median)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and improvement > p_third - p_first
    ):
        return "gain", wins, len(pairs)
    all_better = all(
        sign * (c - p) > 0 for c in change for p in parent
    )
    if relative_spread(parent) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -improvement > bound * abs(p_median):
        return "REGRESSION", wins, len(pairs)
    return "no regression", wins, len(pairs)


def load_runs(path: Path) -> list[dict]:
    """Untraced runs of a ``report.json`` or of all under a directory."""
    files = sorted(path.rglob("report.json")) if path.is_dir() else [path]
    return [
        run
        for file in files
        for run in json.loads(file.read_text(encoding="utf-8"))["runs"]
        if not run["trace"]
    ]


def compare(parent_path: Path, change_path: Path) -> int:
    """Print one row per (workload, metric); exit 1 on any regression.

    Runs pair up by seed order, so run both sides with the same seeds.
    The end-to-end metrics are judged against their bounds, the timings
    against ``TIMING_BOUND``; a workload's timings are unresolved when
    its load generator fell behind in any run of either side.
    """
    metrics = [
        (m["name"], m["better"], m["bound"], "metrics")
        for m in load_benchmark()["end_to_end"]
    ] + [
        (name, better, TIMING_BOUND, "details") for name, better in TIMINGS
    ]
    sides = {
        "parent": load_runs(parent_path),
        "change": load_runs(change_path),
    }
    lengths = {run["seconds"] for runs in sides.values() for run in runs}
    if len(lengths) > 1:
        print(
            f"refusing to compare runs of different lengths: {sorted(lengths)}"
            " seconds",
            file=sys.stderr,
        )
        return 2
    regressions = 0
    for workload in WORKLOADS:
        parent, change = (
            sorted(
                (run for run in sides[side] if run["workload"] == workload),
                key=lambda run: run["seed"],
            )
            for side in ("parent", "change")
        )
        if not parent or not change:
            continue
        more_failures = sum(r["failed"] for r in change) > sum(
            r["failed"] for r in parent
        )
        late = not all(r["valid"] for r in parent + change)
        for name, better, bound, section in metrics:
            p_values = [r[section][name] for r in parent]
            c_values = [r[section][name] for r in change]
            outcome, wins, pairs = verdict(p_values, c_values, better, bound)
            if outcome == "gain" and more_failures:
                outcome = "no gain: more ops failed"
            if section == "details" and late:
                outcome = "unresolved: generator late in a run"
            regressions += outcome == "REGRESSION"
            p_first, p_median, p_third = quartiles(p_values)
            c_first, c_median, c_third = quartiles(c_values)
            print(
                f"{workload:<16} {name:<15} "
                f"parent {p_median:.4g} [{p_first:.4g}, {p_third:.4g}]  "
                f"change {c_median:.4g} [{c_first:.4g}, {c_third:.4g}] "
                f"{UNITS[name]}  {(c_median / p_median - 1) * 100:+.1f}%  "
                f"bound {bound:.0%}  wins {wins}/{pairs}  "
                f"{outcome}"
            )
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--quick", action="store_true",
        help="one short pass per workload and a single set-up sample",
    )
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE")
    )
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.record_golden:
        return subprocess.call(
            [sys.executable, str(BENCH_DIR / "workloads.py"),
             "--record-golden"],
            cwd=ROOT,
            env=child_environment(),
        )

    try:
        run_seconds = float(load_benchmark()["run_seconds"])
    except (OSError, ValueError, KeyError) as error:
        print(f"benchmark failed: BENCHMARK.json: {error}", file=sys.stderr)
        return 1
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(
            f"--seconds must be {run_seconds:g}, the run_seconds of "
            "BENCHMARK.json, so that every run measures for the same time"
        )
    seconds = 0.0 if args.quick else run_seconds
    setup_samples = 1 if args.quick or args.trace else SETUP_SAMPLES
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        if args.out is None:
            scratch = ROOT / ".bench_out"
            scratch.mkdir(exist_ok=True)
            args.out = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        args.out.mkdir(parents=True, exist_ok=True)
        print(f"writing the report under {args.out}")
        for name in workloads:
            result = run_workload(
                name, args.seed, seconds, bool(args.trace), args.out,
                setup_samples,
            )
            print_run(result)
            results.append(result)
    except (ChildFailed, OSError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    (args.out / "report.json").write_text(
        json.dumps({"runs": results}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(summary_line(results, qualify=len(workloads) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
