"""Text rendering of trace documents for ``python -m repro explain``.

Renders the span tree with per-phase wall time, the prune log (each
event naming the compatibility rule that fired), and per-candidate rank
provenance. Input is the plain-dict document of
:meth:`repro.trace.Tracer.to_dict` — the same shape the service returns
in its ``trace`` payload section — so server responses can be rendered
identically client-side.
"""

from __future__ import annotations

from typing import Any, Mapping


def _format_attributes(attributes: Mapping[str, Any]) -> str:
    parts = [f"{key}={attributes[key]}" for key in sorted(attributes)]
    return f" [{', '.join(parts)}]" if parts else ""


def render_span(span: Mapping[str, Any], indent: int = 0) -> list[str]:
    pad = "  " * indent
    elapsed = span.get("elapsed_s", 0.0)
    lines = [
        f"{pad}{span['name']}  {elapsed * 1000:.2f} ms"
        f"{_format_attributes(span.get('attributes', {}))}"
    ]
    for event in span.get("prunes", ()):
        lines.append(f"{pad}  ✗ pruned by {event['rule']}: {event['detail']}")
    for child in span.get("children", ()):
        lines.extend(render_span(child, indent + 1))
    return lines


def render_trace(trace: Mapping[str, Any]) -> str:
    """The full human-readable explain report for one trace document."""
    lines: list[str] = ["span tree (wall time per phase):"]
    for span in trace.get("spans", ()):
        lines.extend(render_span(span, indent=1))
    prunes = trace.get("prunes", ())
    lines.append("")
    if prunes:
        lines.append(f"prune log ({len(prunes)} elimination(s)):")
        for event in prunes:
            lines.append(
                f"  [{event['phase']}] rule={event['rule']}: "
                f"{event['detail'] or event['source_csg']}"
            )
    else:
        lines.append("prune log: no candidates eliminated")
    provenance = trace.get("provenance", ())
    if provenance:
        lines.append("")
        lines.append("rank provenance (best first):")
        for entry in provenance:
            facts = ", ".join(
                f"{key}={entry[key]}"
                for key in sorted(entry)
                if key not in ("rank", "candidate")
            )
            lines.append(
                f"  #{entry.get('rank', '?')} {entry.get('candidate', '')}"
                f"  ({facts})"
            )
    return "\n".join(lines)
