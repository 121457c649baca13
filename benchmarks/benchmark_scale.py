"""Scale benchmark: discovery time vs synthetic CM size.

Not a paper exhibit — the paper's datasets top out at a few dozen
classes. This sweep grows the three :mod:`repro.datasets.synthetic`
families (functional chains, ISA fans, reified many-many webs) from ~10
to ~510 classes per side, keeping the marked-class span — and therefore
the discovered mapping and its translation cost — constant, so the
curve isolates the search layers the distance oracle accelerates.

Each point runs once cold. Its output is pinned elsewhere: the golden
test (``tests/test_golden.py``) holds the synthetic families to recorded
digests, and the steiner property tests hold oracle-guided search equal
to blind search. The claims under test here:

* **coverage** — every point discovers at least one candidate;
* **no truncated web** — no ``reified_web`` point reports
  ``rewrite_limit_hits`` (isa_fan points from 30 classes up do: their
  rewrites stop at the enumeration limit with rule choices left);
* **sub-linear growth** — discovery time grows strictly slower than
  model size: between the second size and the largest, the wall ratio
  must stay under half the class ratio.

The report is written to ``BENCH_scale.json`` at the repo root, both
under pytest and when run directly. ``--smoke`` runs the two smallest
sizes with the coverage gates only (the timing gates need
the large sizes to rise above machine noise) — that is the CI job.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import repro.perf as perf
from repro.datasets import synthetic
from repro.discovery.mapper import SemanticMapper

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_scale.json"

#: Class budgets per side; generators land at or just below each.
SIZES = (10, 60, 150, 510)
SMOKE_SIZES = (10, 30)

#: Search counters surfaced per point.
POINT_COUNTERS = (
    "astar_expansions",
    "bound_prunes",
    "oracle_sweeps",
    "lossy_paths_pruned",
    "required_subtree_prunes",
    "rewrite_limit_hits",
)


def _timed_cold_discover(scenario):
    source, target, correspondences = scenario
    perf.clear_caches()
    start = time.perf_counter()
    result = SemanticMapper(source, target, correspondences).discover()
    return time.perf_counter() - start, result


def run_scale_benchmark(
    sizes=SIZES, timing_gates: bool = True
) -> tuple[dict, list[str]]:
    """One sweep over every family at every size; report plus failures."""
    failures: list[str] = []
    families: dict[str, dict] = {}
    for family in synthetic.FAMILY_NAMES:
        points = []
        for classes in sizes:
            actual, scenario = synthetic.scale_point(family, classes)
            seconds, result = _timed_cold_discover(scenario)
            label = f"{family}@{actual}"
            if len(result) < 1:
                failures.append(f"{label}: no candidate discovered")
            # The reified web's mapping stays small at every size, so its
            # rewrites must never reach the enumeration limit.
            limit_hits = result.stats.get("rewrite_limit_hits", 0)
            if family == "reified_web" and limit_hits:
                failures.append(
                    f"{label}: {limit_hits} rewrites hit the rewrite limit"
                )
            points.append(
                {
                    "classes": actual,
                    "seconds": round(seconds, 4),
                    "candidates": len(result),
                    "counters": {
                        name: result.stats.get(name, 0)
                        for name in POINT_COUNTERS
                    },
                }
            )
        summary: dict = {"points": points}
        if timing_gates and len(points) >= 3:
            base, top = points[1], points[-1]
            class_growth = top["classes"] / base["classes"]
            wall_growth = (
                top["seconds"] / base["seconds"] if base["seconds"] else 0.0
            )
            summary["class_growth"] = round(class_growth, 2)
            summary["wall_growth"] = round(wall_growth, 2)
            if wall_growth > class_growth / 2:
                failures.append(
                    f"{family}: wall time grew {wall_growth:.2f}x "
                    f"over a {class_growth:.2f}x size increase "
                    "(not sub-linear)"
                )
        families[family] = summary
    report = {
        "marked_span": synthetic.MARKED_SPAN,
        "sizes": list(sizes),
        "families": families,
    }
    return report, failures


def _write_report(sizes=SIZES, timing_gates: bool = True) -> dict:
    report, failures = run_scale_benchmark(sizes, timing_gates)
    report["failures"] = failures
    document = {"benchmark": "scale", **report}
    REPORT_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return document


try:
    import pytest
except ImportError:  # pragma: no cover - direct execution only
    pytest = None


if pytest is not None:

    @pytest.fixture(scope="module")
    def scale_report():
        """One full sweep per session, persisted like the CI artifact."""
        return _write_report()

    def test_no_failures(scale_report):
        assert scale_report["failures"] == []

    def test_every_point_discovers(scale_report):
        for family in synthetic.FAMILY_NAMES:
            for point in scale_report["families"][family]["points"]:
                assert point["candidates"] >= 1, (family, point)

    def test_oracle_counters_fire_at_scale(scale_report):
        for family in synthetic.FAMILY_NAMES:
            top = scale_report["families"][family]["points"][-1]
            assert top["counters"]["bound_prunes"] > 0, (family, top)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, coverage gates only (the CI job)",
    )
    options = parser.parse_args(argv)
    if options.smoke:
        document = _write_report(SMOKE_SIZES, timing_gates=False)
    else:
        document = _write_report()
    print(json.dumps(document, indent=2, sort_keys=True))
    if document["failures"]:
        print(f"FAILED: {document['failures']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
