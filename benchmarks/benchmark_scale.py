"""Scale benchmark: discovery time vs synthetic CM size, oracle vs seed.

Not a paper exhibit — the paper's datasets top out at a few dozen
classes. This sweep grows the three :mod:`repro.datasets.synthetic`
families (functional chains, ISA fans, reified many-many webs) from ~10
to ~510 classes per side, keeping the marked-class span — and therefore
the discovered mapping and its translation cost — constant, so the
curve isolates the search layers the distance oracle accelerates.

Each point runs twice cold: oracle-guided (the default pipeline) and
the seed path (``repro.perf.disabled()``, blind expansion). The claims
under test:

* **equivalence** — the TGD output is byte-identical between the two
  modes at every size (the oracle only prunes provably fruitless work);
* **coverage** — every point discovers at least one candidate;
* **no truncated web** — no ``reified_web`` point reports
  ``rewrite_limit_hits`` (chain and isa_fan points from 30 classes up
  do: their rewrites stop at the enumeration limit);
* **sub-linear growth** — oracle-guided time grows strictly slower
  than model size: between the second size and the largest, the wall
  ratio must stay under half the class ratio;
* **speedup at scale** — at the largest size the oracle-guided run
  beats the seed path by at least :data:`SPEEDUP_FLOOR`.

The report is written to ``BENCH_scale.json`` at the repo root, both
under pytest and when run directly. ``--smoke`` runs the two smallest
sizes with the equivalence/coverage gates only (the timing gates need
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

#: At the largest size, oracle-guided must beat seed by this factor.
SPEEDUP_FLOOR = 1.5

#: Search counters surfaced per point (from the oracle-guided run).
POINT_COUNTERS = (
    "astar_expansions",
    "bound_prunes",
    "oracle_sweeps",
    "lossy_paths_pruned",
    "required_subtree_prunes",
    "rewrite_limit_hits",
)


def _tgds(result) -> tuple[str, ...]:
    return tuple(
        candidate.to_tgd(f"M{index}")
        for index, candidate in enumerate(result, start=1)
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
            oracle_seconds, oracle_result = _timed_cold_discover(scenario)
            with perf.disabled():
                seed_seconds, seed_result = _timed_cold_discover(scenario)
            label = f"{family}@{actual}"
            if _tgds(oracle_result) != _tgds(seed_result):
                failures.append(f"{label}: oracle output differs from seed")
            if len(oracle_result) < 1:
                failures.append(f"{label}: no candidate discovered")
            # The reified web's mapping stays small at every size, so its
            # rewrites must never reach the enumeration limit.
            limit_hits = oracle_result.stats.get("rewrite_limit_hits", 0)
            if family == "reified_web" and limit_hits:
                failures.append(
                    f"{label}: {limit_hits} rewrites hit the rewrite limit"
                )
            points.append(
                {
                    "classes": actual,
                    "oracle_seconds": round(oracle_seconds, 4),
                    "seed_seconds": round(seed_seconds, 4),
                    "speedup": round(
                        seed_seconds / oracle_seconds, 2
                    )
                    if oracle_seconds
                    else None,
                    "candidates": len(oracle_result),
                    "counters": {
                        name: oracle_result.stats.get(name, 0)
                        for name in POINT_COUNTERS
                    },
                }
            )
        summary: dict = {"points": points}
        if timing_gates and len(points) >= 3:
            base, top = points[1], points[-1]
            class_growth = top["classes"] / base["classes"]
            wall_growth = (
                top["oracle_seconds"] / base["oracle_seconds"]
                if base["oracle_seconds"]
                else 0.0
            )
            summary["class_growth"] = round(class_growth, 2)
            summary["oracle_growth"] = round(wall_growth, 2)
            summary["largest_speedup"] = top["speedup"]
            if wall_growth > class_growth / 2:
                failures.append(
                    f"{family}: oracle wall time grew {wall_growth:.2f}x "
                    f"over a {class_growth:.2f}x size increase "
                    "(not sub-linear)"
                )
            if top["speedup"] is not None and top["speedup"] < SPEEDUP_FLOOR:
                failures.append(
                    f"{family}: speedup at the largest size is "
                    f"{top['speedup']:.2f}x < {SPEEDUP_FLOOR}x"
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
        help="small sizes, equivalence/coverage gates only (the CI job)",
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
