"""Unit tests for ``repro.trace``: the span recorder, trees, prunes."""

import json
import threading
import time

import pytest

from repro.trace import (
    TRACE_FORMAT,
    PruneEvent,
    Recorder,
    Span,
    Tracer,
    render_span,
    render_trace,
)


class TestSpan:
    def test_close_records_elapsed(self):
        span = Span("phase")
        span.close()
        assert span.elapsed_seconds >= 0

    def test_set_attaches_attribute(self):
        span = Span("phase")
        span.set("candidates", 3)
        assert span.to_dict()["attributes"] == {"candidates": 3}

    def test_to_dict_omits_empty_sections(self):
        span = Span("phase")
        span.close()
        data = span.to_dict()
        assert set(data) == {"name", "elapsed_s"}

    def test_children_nest_in_dict(self):
        parent = Span("outer")
        parent.children.append(Span("inner"))
        assert parent.to_dict()["children"][0]["name"] == "inner"


class TestTracer:
    def test_spans_nest_per_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        assert tracer.roots[0].children[0].name == "inner"
        assert tracer.span_count == 2

    def test_span_attributes_from_kwargs(self):
        tracer = Tracer()
        with tracer.span("phase", anchor="Person"):
            pass
        assert tracer.roots[0].attributes == {"anchor": "Person"}

    def test_prune_requires_explain(self):
        tracer = Tracer(explain=False)
        tracer.prune("pair_filter", "cardinality", detail="nope")
        assert tracer.prunes == []
        explainer = Tracer(explain=True)
        explainer.prune("pair_filter", "cardinality", detail="nope")
        assert explainer.prunes == [
            PruneEvent("pair_filter", "cardinality", detail="nope")
        ]

    def test_prune_attaches_to_open_span(self):
        tracer = Tracer(explain=True)
        with tracer.span("csg_pair"):
            tracer.prune("pair_filter", "partOf", "s", "t", "why")
        assert tracer.roots[0].events[0].rule == "partOf"
        assert tracer.prunes[0].to_dict() == {
            "phase": "pair_filter",
            "rule": "partOf",
            "source_csg": "s",
            "target_csg": "t",
            "detail": "why",
        }

    def test_rank_requires_explain(self):
        tracer = Tracer()
        tracer.rank({"rank": 1})
        assert tracer.provenance == []
        explainer = Tracer(explain=True)
        explainer.rank({"rank": 1})
        assert explainer.provenance == [{"rank": 1}]

    def test_prune_rules_counts_sorted(self):
        tracer = Tracer(explain=True)
        for rule in ("partOf", "cardinality", "partOf"):
            tracer.prune("pair_filter", rule)
        assert tracer.prune_rules() == {"cardinality": 1, "partOf": 2}

    def test_to_dict_shape(self):
        tracer = Tracer(explain=True)
        with tracer.span("discover"):
            tracer.prune("pair_filter", "anchor")
        document = tracer.to_dict()
        assert document["format"] == TRACE_FORMAT
        assert document["explain"] is True
        assert document["spans"][0]["name"] == "discover"
        assert document["prunes"][0]["rule"] == "anchor"
        assert document["provenance"] == []

    def test_to_json_sorted_and_parseable(self):
        tracer = Tracer()
        with tracer.span("discover"):
            pass
        document = json.loads(tracer.to_json())
        assert document["format"] == TRACE_FORMAT

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            with tracer.span(name):
                with tracer.span(f"{name}-child"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # two root spans, each with exactly its own child — no interleave
        assert sorted(span.name for span in tracer.roots) == ["t0", "t1"]
        for span in tracer.roots:
            assert [child.name for child in span.children] == [
                f"{span.name}-child"
            ]


class TestRecorder:
    """The always-on base: per-name calls, total and self time, no tree."""

    def test_records_no_tree(self):
        recorder = Recorder()
        assert recorder.records_tree is False
        assert recorder.explain is False
        assert Tracer().records_tree is True

    def test_prune_and_rank_are_noops(self):
        recorder = Recorder()
        with recorder.span("csg_pair", source="s") as span:
            span.set("ignored", True)  # Span-compatible, keeps nothing
            recorder.prune("pair_filter", "anchor")
            recorder.rank({"rank": 1})
        assert not hasattr(recorder, "prunes")
        assert recorder.span_count == 1

    def test_span_records_wall_time(self):
        recorder = Recorder()
        with recorder.span("rank"):
            time.sleep(0.001)
        calls, total, own = recorder.timings()["rank"]
        assert calls == 1
        assert total >= 0.001
        assert own == total

    def test_timings_accumulate_by_name(self):
        recorder = Recorder()
        with recorder.span("discover"):
            for _ in range(3):
                with recorder.span("translate"):
                    pass
        timings = recorder.timings()
        assert list(timings) == ["discover", "translate"]
        assert timings["translate"][0] == 3
        assert recorder.span_count == 4

    def test_self_time_excludes_direct_children(self):
        recorder = Recorder()
        with recorder.span("discover") as root:
            with recorder.span("source_search"):
                with recorder.span("translate"):
                    time.sleep(0.002)
            time.sleep(0.001)
        timings = recorder.timings()
        _, root_total, root_self = timings["discover"]
        _, search_total, search_self = timings["source_search"]
        _, translate_total, translate_self = timings["translate"]
        assert root_total == root.elapsed_seconds
        assert search_self == pytest.approx(search_total - translate_total)
        assert root_self == pytest.approx(root_total - search_total)
        assert root_self >= 0.001
        assert root_self + search_self + translate_self == pytest.approx(
            root_total, abs=1e-12
        )

    def test_stats_keys_and_since(self):
        recorder = Recorder()
        with recorder.span("discover"):
            with recorder.span("lift"):
                pass
        stats = recorder.stats()
        assert set(stats) == {
            "time_discover_s",
            "self_discover_s",
            "time_lift_s",
            "self_lift_s",
        }
        before = recorder.timings()
        with recorder.span("discover"):
            pass
        assert set(recorder.stats(since=before)) == {
            "time_discover_s",
            "self_discover_s",
        }

    def test_threads_time_only_their_own_spans(self):
        recorder = Recorder()
        barrier = threading.Barrier(2)

        def worker(name):
            with recorder.span(name):
                barrier.wait(timeout=10)
                with recorder.span(f"{name}-child"):
                    barrier.wait(timeout=10)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        timings = recorder.timings()
        for name in ("t0", "t1"):
            _, total, own = timings[name]
            _, child_total, _ = timings[f"{name}-child"]
            # Only this thread's child is subtracted from its parent.
            assert own == pytest.approx(total - child_total)


class TestRendering:
    @pytest.fixture()
    def trace_document(self):
        tracer = Tracer(explain=True)
        with tracer.span("discover"):
            with tracer.span("rank", scored=2):
                tracer.prune(
                    "rank", "anchor", "src", "tgt", "reified mismatch"
                )
        tracer.rank({"rank": 1, "candidate": "M1"})
        return tracer.to_dict()

    def test_render_span_indents_and_times(self, trace_document):
        lines = render_span(trace_document["spans"][0])
        text = "\n".join(lines)
        assert "discover" in text
        assert "ms" in text
        assert any(line.startswith("  rank") for line in lines)
        assert "pruned by anchor" in text

    def test_render_trace_sections(self, trace_document):
        text = render_trace(trace_document)
        assert "span tree" in text
        assert "anchor" in text
        assert "reified mismatch" in text
