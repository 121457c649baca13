"""The benchmark's five workloads; each run happens in a child process.

``run.py`` starts this file once per set-up sample. The child imports
what its workload needs and builds its inputs (for ``service_warm``: it
starts the server and waits for a healthy ``/health``), prints
``ready``, and reads one line from standard input. ``exit`` ends it;
``go`` runs the workload for ``--seconds`` and prints the result as the
last line of standard output. Everything else goes to standard error.

All inputs derive from ``--seed``. Every operation's output is checked
against ``golden.json``; ``--record-golden`` rewrites that file from the
current code and must only be run on a commit whose output is trusted.

With ``--trace 1`` passes alternate between untraced and traced (layer
wrappers from ``spans.py`` installed), so one run yields the per-layer
metrics and the tracing overhead measured under the same conditions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import itertools
import json
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, layer_metrics, load_spans
from stats import percentile, tail

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: ``synthetic.scale_point`` sizes of the two synthetic workloads.
DEEP_POINTS = (("chain", 150), ("chain", 510), ("isa_fan", 150),
               ("isa_fan", 510))
WIDE_POINTS = (("reified_web", 509), ("reified_web", 999),
               ("reified_web", 1499))

#: isa_fan output at the seed is cut short by the rewrite limit (its
#: TGDs change when the limit is raised), so it has no golden text.
EXEMPT_FAMILIES = ("isa_fan",)

#: The edit sessions' scenario: disjoint chains with two endpoint
#: correspondences each; an edit moves one from attribute a to b.
EDIT_SEGMENTS = 4
EDIT_LINKS = 14
EDIT_PENDANTS = 2
EDIT_CORRESPONDENCES = 2 * EDIT_SEGMENTS
EDITS_PER_SESSION = 5

#: The service's traffic mix. Rate, skew and cache-bypass share are
#: assumptions: no measured request traffic exists to take them from.
SERVICE_RATE = 100.0
SERVICE_ZIPF = 1.1
SERVICE_NO_CACHE_SHARE = 0.2
SERVICE_LATENESS_LIMIT_MS = 5.0
#: Length of the alternating untraced/traced phases of a traced run.
SERVICE_PHASE_SECONDS = 1.5


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def tgd_digest(result) -> str:
    text = "\n".join(
        str(candidate.to_tgd(f"M{index}"))
        for index, candidate in enumerate(result, start=1)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mapping_digest(mapping) -> str:
    text = json.dumps(mapping, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Timed operations of one kind of pass (untraced or traced)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.pass_rates: list[float] = []

    def record(
        self, seconds: float, failure: str | None, sampled: bool
    ) -> None:
        """Count one timed call; an unsampled one (an edit session's base
        discovery) adds to busy time but is not an operation."""
        if sampled:
            self.latencies.append(seconds)
        self.busy += seconds
        self.attempted += 1
        if failure is not None:
            if not self.failed:
                log(f"operation failed: {failure}")
            self.failed += 1

    def measure_pass(self, run, *args) -> None:
        """Run one pass and keep its operations per busy second."""
        ops, busy = len(self.latencies), self.busy
        run(self, *args)
        if self.busy > busy:
            self.pass_rates.append(
                (len(self.latencies) - ops) / (self.busy - busy)
            )

    def timings(self) -> dict[str, float]:
        """The median pass's rate (a burst of machine noise that slows one
        pass does not move it) and the median latency."""
        return {
            "throughput_ops": statistics.median(self.pass_rates),
            "latency_p50_ms": statistics.median(self.latencies) * 1000.0,
        }


def timed(tally, recorder, fn, check, sampled=True):
    """Run one operation, time it, and check its output outside the timing.

    Under a recorder the call is the root span ``op`` of its layers.
    """
    call = recorder.wrap("op", fn) if recorder is not None else fn
    start = time.perf_counter()
    try:
        result = call()
    except Exception:
        elapsed = time.perf_counter() - start
        tally.record(elapsed, traceback.format_exc(), sampled)
        return None
    elapsed = time.perf_counter() - start
    tally.record(elapsed, check(result), sampled)
    return result


class ClosedLoop:
    """A workload whose next operation starts when the previous one ends."""

    name = ""

    def __init__(self, rng: random.Random, golden: dict) -> None:
        self.rng = rng
        self.golden = golden

    def check(self, key: str):
        """A checker of one result against the golden digest of ``key``."""
        family = key.split("@")[0]
        if family in EXEMPT_FAMILIES:
            return lambda result: (
                None if len(result) >= 1 else f"{key}: no candidate"
            )
        expected = self.golden[key]

        def check(result):
            digest = tgd_digest(result)
            if digest != expected:
                return f"{key}: TGD digest {digest} != golden {expected}"
            return None

        return check

    def warmup(self, tally: Tally) -> None:
        self.run_pass(tally, None)

    def run_pass(self, tally: Tally, recorder) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def measure(self, seconds: float, trace: bool, out_dir: Path) -> dict:
        warm = Tally()
        if seconds > 0:  # a --quick run skips it
            self.warmup(warm)
        untraced, traced = Tally(), Tally()
        recorder = SpanRecorder()
        started = time.perf_counter()
        passes = 0
        while (
            passes < (2 if trace else 1)
            or time.perf_counter() - started < seconds
        ):
            if trace and passes % 2:
                recorder.install()
                try:
                    traced.measure_pass(self.run_pass, recorder)
                finally:
                    recorder.uninstall()
            else:
                untraced.measure_pass(self.run_pass, None)
            passes += 1
        wall = time.perf_counter() - started
        tallies = (warm, untraced, traced)
        timings = untraced.timings()
        result = {
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "valid": True,
            "details": {
                "passes": passes,
                "wall_seconds": wall,
                "samples": len(untraced.latencies),
                "pass_rates": untraced.pass_rates,
                **timings,
            },
        }
        if trace:
            recorder.dump(out_dir / f"{self.name}.spans.jsonl")
            metrics = layer_metrics(
                recorder.spans, len(traced.latencies), traced.busy
            )
            metrics.update(timings)
            metrics["trace.overhead"] = (
                timings["throughput_ops"]
                / traced.timings()["throughput_ops"]
            )
            quantile, metrics["latency_tail_ms"] = tail(
                seconds * 1000.0 for seconds in untraced.latencies
            )
            metrics["service.cached_p50_ms"] = 0.0
            metrics["service.uncached_p50_ms"] = 0.0
            result["details"].update(
                traced_samples=len(traced.latencies), tail_percentile=quantile
            )
        else:
            metrics = {"peak_rss_mb": peak_rss_mb()}
        result["metrics"] = metrics
        return result


class PaperBatch(ClosedLoop):
    """The 34 registered cases in a seeded order, caches cleared per pass."""

    name = "paper_batch"

    def __init__(self, rng, golden) -> None:
        super().__init__(rng, golden["paper"])
        import repro.perf as perf
        from repro.datasets.registry import load_all_datasets
        from repro.discovery.mapper import SemanticMapper

        self.perf = perf
        self.load_all_datasets = load_all_datasets
        self.mapper = SemanticMapper
        self.cases = [
            (index, case_index)
            for index, pair in enumerate(load_all_datasets())
            for case_index in range(len(pair.cases))
        ]

    def run_pass(self, tally, recorder) -> None:
        gc.collect()
        self.perf.clear_caches()
        pairs = self.load_all_datasets()
        for index, case_index in self.rng.sample(self.cases, len(self.cases)):
            pair = pairs[index]
            case = pair.cases[case_index]
            timed(
                tally,
                recorder,
                lambda: self.mapper(
                    pair.source, pair.target, case.correspondences
                ).discover(),
                self.check(f"{pair.name}/{case.case_id}"),
            )


class SyntheticPoints(ClosedLoop):
    """Cold discoveries of ``synthetic.scale_point`` scenarios."""

    points: tuple = ()

    def __init__(self, rng, golden) -> None:
        super().__init__(rng, golden[self.name])
        import repro.perf as perf
        from repro.datasets import synthetic
        from repro.discovery.mapper import SemanticMapper

        self.perf = perf
        self.synthetic = synthetic
        self.mapper = SemanticMapper

    def run_point(self, tally, recorder, family: str, classes: int) -> None:
        gc.collect()
        _, (source, target, correspondences) = self.synthetic.scale_point(
            family, classes
        )
        self.perf.clear_caches()
        timed(
            tally,
            recorder,
            lambda: self.mapper(source, target, correspondences).discover(),
            self.check(f"{family}@{classes}"),
        )

    def warmup(self, tally) -> None:
        self.run_point(tally, None, *self.points[0])

    def run_pass(self, tally, recorder) -> None:
        for family, classes in self.rng.sample(self.points, len(self.points)):
            self.run_point(tally, recorder, family, classes)


class DeepRewrite(SyntheticPoints):
    name = "deep_rewrite"
    points = DEEP_POINTS


class WideSchema(SyntheticPoints):
    name = "wide_schema"
    points = WIDE_POINTS


def segmented_model(name: str):
    """Disjoint functional chains with dead-end pendants on every link."""
    from repro.cm import ConceptualModel

    cm = ConceptualModel(name)
    for seg in range(EDIT_SEGMENTS):
        for index in range(EDIT_LINKS + 1):
            cm.add_class(
                f"S{seg}C{index}",
                attributes=[f"k{index}", f"a{index}", f"b{index}"],
                key=[f"k{index}"],
            )
            for pendant in range(EDIT_PENDANTS):
                cm.add_class(
                    f"S{seg}P{index}x{pendant}",
                    attributes=[f"pk{index}"],
                    key=[f"pk{index}"],
                )
                cm.add_relationship(
                    f"s{seg}pend{index}x{pendant}",
                    f"S{seg}C{index}",
                    f"S{seg}P{index}x{pendant}",
                    "0..1",
                    "0..*",
                )
        for index in range(EDIT_LINKS):
            cm.add_relationship(
                f"s{seg}f{index}",
                f"S{seg}C{index}",
                f"S{seg}C{index + 1}",
                "1..1",
                "0..*",
            )
    return cm


def edit_correspondences(state: str) -> list[str]:
    """Correspondence ``i`` uses attribute ``b`` where ``state[i]`` is 1."""
    lines = []
    for seg in range(EDIT_SEGMENTS):
        for end, index in enumerate((0, EDIT_LINKS)):
            attribute = "ab"[int(state[2 * seg + end])] + str(index)
            column = f"s{seg}c{index}.{attribute}"
            lines.append(f"{column} <-> {column}")
    return lines


class EditRediscover(ClosedLoop):
    """Sessions of single-correspondence toggles answered by rediscover."""

    name = "edit_rediscover"

    def __init__(self, rng, golden) -> None:
        super().__init__(rng, golden["edit_rediscover"])
        import repro.perf as perf
        from repro.correspondences import CorrespondenceSet
        from repro.discovery.batch import Scenario
        from repro.discovery.incremental import rediscover
        from repro.semantics import design_schema

        self.perf = perf
        self.parse = CorrespondenceSet.parse
        self.scenario = Scenario.create
        self.rediscover = rediscover
        self.design_schema = design_schema

    def run_pass(self, tally, recorder) -> None:
        """One session; its base discovery counts toward the session's
        busy time but is not itself an edit sample."""
        gc.collect()
        source = self.design_schema(segmented_model("edit_src"), "src")
        target = self.design_schema(segmented_model("edit_tgt"), "tgt")
        self.perf.clear_caches()
        state = "0" * EDIT_CORRESPONDENCES
        previous = timed(
            tally,
            recorder,
            lambda: self.scenario(
                "edit/base",
                source.semantics,
                target.semantics,
                self.parse(edit_correspondences(state)),
            ).run(),
            self.check(state),
            sampled=False,
        )
        for position in self.rng.sample(
            range(EDIT_CORRESPONDENCES), EDITS_PER_SESSION
        ):
            state = state[:position] + "1" + state[position + 1:]
            scenario = self.scenario(
                f"edit/{state}",
                source.semantics,
                target.semantics,
                self.parse(edit_correspondences(state)),
            )
            outcome = timed(
                tally,
                recorder,
                lambda: self.rediscover(previous, scenario),
                lambda outcome, key=state: self.check(key)(outcome.result),
            )
            if outcome is None:
                return
            previous = outcome.result


class ServiceWarm:
    """An open loop of ``POST /discover`` at a fixed rate against a server.

    Two threads take requests from one schedule: each sleeps until its
    request is due, sends it, and records the time from due to response,
    so a stall shows up in the requests queued behind it.
    """

    name = "service_warm"

    def __init__(self, rng, golden, trace: bool, out_dir: Path) -> None:
        self.rng = rng
        self.specs = golden["service"]
        self.spans_path = out_dir / f"{self.name}.spans.jsonl"
        if trace:
            command = [
                sys.executable,
                str(BENCH_DIR / "service_boot.py"),
                "--spans",
                str(self.spans_path),
            ]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--port", "0", "--workers", "2"]
        self.server = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.server.stdout], [], [], 60.0)
            banner = self.server.stdout.readline() if ready else ""
            if "listening on http://" not in banner:
                raise RuntimeError(f"server did not start: {banner!r}")
            address = banner.split("http://", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
            self._wait_healthy()
        except BaseException:
            self.close()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=5
            )
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                # Read the body: closing with it unread resets the
                # connection under the server's handler thread.
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if self.server.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("server never reported healthy")

    def close(self) -> None:
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                log("server still running 20 s after SIGINT; killing it")
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()

    def _server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One request on a fresh connection, as ``ServiceClient`` sends it."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=60
        )
        try:
            connection.request(
                "POST",
                "/discover",
                body,
                {"Content-Type": "application/json", "Connection": "close"},
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _failure(self, status: int, data: bytes, expected: str):
        if status != 200:
            return f"HTTP {status}: {data[:200]!r}"
        digest = mapping_digest(json.loads(data)["result"]["mapping"])
        if digest != expected:
            return f"mapping digest {digest} != golden {expected}"
        return None

    def _plan(self, count: int) -> list[tuple[int, bool]]:
        """Zipf-distributed spec indices over a seeded permutation."""
        order = self.rng.sample(range(len(self.specs)), len(self.specs))
        weights = [
            1.0 / rank**SERVICE_ZIPF for rank in range(1, len(order) + 1)
        ]
        picks = self.rng.choices(order, weights=weights, k=count)
        return [
            (pick, self.rng.random() >= SERVICE_NO_CACHE_SHARE)
            for pick in picks
        ]

    def measure(self, seconds: float, trace: bool, out_dir: Path) -> dict:
        failed = 0
        for entry in self.specs:
            body = json.dumps({"scenario": entry["spec"]}).encode()
            failure = self._failure(*self._post(body), entry["sha256"])
            if failure is not None:
                log(f"warm-up failed: {failure}")
                failed += 1

        count = max(1, round(max(seconds, 1.0) * SERVICE_RATE))
        plan = self._plan(count)
        bodies = [
            json.dumps(
                {"scenario": self.specs[pick]["spec"], "use_cache": cached}
            ).encode()
            for pick, cached in plan
        ]
        per_phase = count
        if trace:
            per_phase = max(
                1,
                min(round(SERVICE_PHASE_SECONDS * SERVICE_RATE), count // 2),
            )
        outcomes: list = [None] * count
        tickets = itertools.count()
        start = time.perf_counter() + 0.05

        def drive() -> None:
            while True:
                index = next(tickets)
                if index >= count:
                    return
                due = start + index / SERVICE_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if trace and index and index % per_phase == 0:
                    traced_phase = (index // per_phase) % 2
                    self.server.send_signal(
                        signal.SIGUSR1 if traced_phase else signal.SIGUSR2
                    )
                sent = time.perf_counter()
                try:
                    status, data = self._post(bodies[index])
                except (OSError, http.client.HTTPException) as error:
                    status, data = 0, repr(error).encode()
                done = time.perf_counter()
                outcomes[index] = (due, sent, done, status, data)

        helper = threading.Thread(target=drive)
        helper.start()
        try:
            drive()
        finally:
            helper.join()
        rss = self._server_peak_rss_mb()
        self.close()

        phases: dict[bool, list] = {False: [], True: []}
        lateness = []
        for index, (due, sent, done, status, data) in enumerate(outcomes):
            pick, cached = plan[index]
            failure = self._failure(status, data, self.specs[pick]["sha256"])
            if failure is not None:
                if not failed:
                    log(f"request failed: {failure}")
                failed += 1
            lateness.append((sent - due) * 1000.0)
            traced_phase = trace and (index // per_phase) % 2 == 1
            phases[traced_phase].append((cached, due, sent, done))
        late_p99 = percentile(lateness, 99)
        valid = late_p99 <= SERVICE_LATENESS_LIMIT_MS
        if not valid:
            log(
                f"invalid run: generator p99 lateness {late_p99:.2f} ms > "
                f"{SERVICE_LATENESS_LIMIT_MS} ms"
            )
        timings = self._timings(phases[False])
        # Over the whole run: in a traced run the untraced phases alternate
        # with traced ones, and the rate is the generator's either way.
        timings["throughput_ops"] = count / (
            max(done for _, _, done, _, _ in outcomes) - start
        )
        result = {
            "attempted": len(self.specs) + count,
            "failed": failed,
            "valid": valid,
            "details": {
                "samples": len(phases[False]),
                "lateness_p99_ms": late_p99,
                **timings,
            },
        }
        if trace:
            traced = phases[True]
            spans = load_spans(self.spans_path)
            busy = sum(done - sent for _, _, sent, done in traced)
            http_seconds = sum(
                end - begin
                for _, parent, name, begin, end, _ in spans
                if name == "service.http" and parent == 0
            )
            metrics = layer_metrics(
                spans, len(traced), busy, other_seconds=busy - http_seconds
            )
            metrics.update(timings)
            metrics["trace.overhead"] = (
                self._timings(traced)["latency_p50_ms"]
                / timings["latency_p50_ms"]
            )
            quantile, metrics["latency_tail_ms"] = tail(
                (done - due) * 1000.0 for _, due, _, done in phases[False]
            )
            result["details"].update(
                traced_samples=len(traced), tail_percentile=quantile
            )
        else:
            metrics = {"peak_rss_mb": rss}
        result["metrics"] = metrics
        return result

    @staticmethod
    def _timings(requests) -> dict[str, float]:
        """Median latency from due time, over all requests and apart for
        those that may and may not use the result cache."""
        latencies = [
            (cached, (done - due) * 1000.0)
            for cached, due, _, done in requests
        ]

        def p50(*kinds) -> float:
            values = [value for cached, value in latencies if cached in kinds]
            return statistics.median(values) if values else 0.0

        return {
            "latency_p50_ms": p50(True, False),
            "service.cached_p50_ms": p50(True),
            "service.uncached_p50_ms": p50(False),
        }


CLOSED_LOOPS = {
    workload.name: workload
    for workload in (PaperBatch, DeepRewrite, WideSchema, EditRediscover)
}
WORKLOAD_NAMES = (*CLOSED_LOOPS, ServiceWarm.name)


def service_specs(pairs) -> list[dict]:
    """Every registered case, then every distinct proper non-empty subset
    of a case's correspondences, as ``POST /discover`` scenario specs."""
    specs = [
        {"dataset": pair.name, "case": case.case_id}
        for pair in pairs
        for case in pair.cases
    ]
    seen = set()
    for pair in pairs:
        for case in pair.cases:
            texts = [
                f"{item.source} <-> {item.target}"
                for item in case.correspondences
            ]
            for size in range(1, len(texts)):
                for subset in itertools.combinations(texts, size):
                    if (pair.name, subset) not in seen:
                        seen.add((pair.name, subset))
                        specs.append(
                            {
                                "dataset": pair.name,
                                "correspondences": list(subset),
                            }
                        )
    return specs


def record_golden() -> dict:
    """Golden digests of every checked output, computed cold."""
    import repro.perf as perf
    from repro.correspondences import CorrespondenceSet
    from repro.datasets import synthetic
    from repro.datasets.registry import load_all_datasets
    from repro.discovery.batch import discover_many
    from repro.discovery.mapper import SemanticMapper
    from repro.semantics import design_schema
    from repro.service.wire import discover_request_from_wire, result_to_wire

    def discover(source, target, correspondences):
        perf.clear_caches()
        return SemanticMapper(source, target, correspondences).discover()

    golden: dict = {
        "exempt": {
            family: "seed output is truncated by the rewrite limit (the "
            "TGDs change at limit=1024); checked for >= 1 candidate only"
            for family in EXEMPT_FAMILIES
        },
        "paper": {},
        "deep_rewrite": {},
        "wide_schema": {},
        "edit_rediscover": {},
        "service": [],
    }
    pairs = load_all_datasets()
    for pair in pairs:
        for case in pair.cases:
            golden["paper"][f"{pair.name}/{case.case_id}"] = tgd_digest(
                discover(pair.source, pair.target, case.correspondences)
            )
    for section, points in (("deep_rewrite", DEEP_POINTS),
                            ("wide_schema", WIDE_POINTS)):
        for family, classes in points:
            if family in EXEMPT_FAMILIES:
                continue
            _, scenario = synthetic.scale_point(family, classes)
            golden[section][f"{family}@{classes}"] = tgd_digest(
                discover(*scenario)
            )
    source = design_schema(segmented_model("edit_src"), "src").semantics
    target = design_schema(segmented_model("edit_tgt"), "tgt").semantics
    for bits in itertools.product("01", repeat=EDIT_CORRESPONDENCES):
        state = "".join(bits)
        golden["edit_rediscover"][state] = tgd_digest(
            discover(
                source,
                target,
                CorrespondenceSet.parse(edit_correspondences(state)),
            )
        )
    for spec in service_specs(pairs):
        perf.clear_caches()
        scenario, _ = discover_request_from_wire({"scenario": spec})
        batch = discover_many([scenario], workers=1)
        if batch.failures:
            raise RuntimeError(f"service spec {spec} failed")
        mapping = result_to_wire(batch.results[0][1])["mapping"]
        golden["service"].append(
            {
                "spec": spec,
                "sha256": mapping_digest(json.loads(json.dumps(mapping))),
            }
        )
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        GOLDEN_PATH.write_text(
            json.dumps(record_golden(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return 0
    if args.workload is None or args.seconds is None or args.out is None:
        parser.error("--workload, --seconds and --out are required")
    # A shell starts background jobs with SIGINT ignored, and the server
    # would inherit that and never shut down on it. A handled signal is
    # reset to its default across exec, so the server gets SIGINT back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    rng = random.Random(args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == ServiceWarm.name:
        workload = ServiceWarm(rng, golden, bool(args.trace), args.out)
    else:
        workload = CLOSED_LOOPS[args.workload](rng, golden)
    try:
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = workload.measure(args.seconds, bool(args.trace), args.out)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
