"""Pipeline tracing and explainability (see ``docs/observability.md``).

Quick use::

    from repro import DiscoveryOptions, Tracer, discover_mappings

    tracer = Tracer(explain=True)
    result = discover_mappings(source, target, correspondences, trace=tracer)
    print(tracer.to_json(indent=2))          # span tree + prune log
    print(result.trace["prunes"])            # same data on the result

or let the options object manage the tracer::

    result = discover_mappings(
        source, target, correspondences,
        options=DiscoveryOptions(explain=True),
    )
    for event in result.trace["prunes"]:
        print(event["rule"], event["detail"])
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.trace.render": ("render_span", "render_trace"),
        "repro.trace.tracer": (
            "TRACE_FORMAT",
            "PruneEvent",
            "Recorder",
            "Span",
            "Tracer",
        ),
    },
)
