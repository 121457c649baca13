"""The input model's footprint: a CM graph costs a few hundred bytes per edge.

On wide schemas the largest thing in memory is the input, not the
discovery state, and the CM graph is its largest part. ``CMGraph``
stores each node as a shared ``(kind, extra)`` pair and each
(source, target) pair's edges as one tuple of slotted ``CMEdge``
objects, whose attribute and ISA cardinalities are shared constants.
This pins that: a per-pair label dict brought back into the graph
pushes ``reified_web@509`` past the bound (with per-node and per-pair
dicts it measured 681–910 traced bytes per edge, without them 285–317,
on Python 3.10–3.12).
"""

import gc
import tracemalloc

from repro.cm import CMGraph
from repro.datasets import synthetic

#: Traced bytes per directed edge that a ``CMGraph`` may hold.
MAX_BYTES_PER_EDGE = 400

#: ``reified_web@509``: 2 * 254 + 1 classes.
LINKS = (509 - 1) // 2


def test_cm_graph_bytes_per_edge():
    model = synthetic.reified_web_model("syn_web_src", LINKS)
    assert len(model.class_names()) == 509
    gc.collect()
    tracemalloc.start()
    try:
        graph = CMGraph(model)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = sum(1 for _ in graph.edges())
    assert edges > 1500
    per_edge = traced / edges
    assert per_edge <= MAX_BYTES_PER_EDGE, (
        f"CMGraph holds {per_edge:.0f} traced bytes per edge "
        f"({traced} bytes, {edges} edges); the bound is "
        f"{MAX_BYTES_PER_EDGE}"
    )
