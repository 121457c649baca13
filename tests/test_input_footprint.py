"""The input model's footprint: a CM graph costs a few hundred bytes per edge.

On wide schemas the largest thing in memory is the input, not the
discovery state, and the CM graph is its largest part. ``CMGraph``
stores each class node's relationship and ISA out-edges once, as one
tuple of slotted ``CMEdge`` objects sorted the way ``edges_from``
returns them, plus its functional subset; attribute nodes and edges are
read from the model, not stored. ``GraphIndex`` shares those tuples
instead of copying them.

This pins both. Storing attribute nodes and edges again (as per-node
kind entries and per-(source, target) edge buckets) measured 293
traced bytes per edge at ``reified_web@509`` on Python 3.11, against
116 without; with per-node and per-pair label dicts it was 681–910.
A ``GraphIndex`` that copies the adjacency measured 160 traced bytes
per class there, against 26 when it only keeps its class list and
reified set.
"""

import gc
import tracemalloc

from repro.cm import CMGraph
from repro.datasets import synthetic
from repro.perf.index import GraphIndex

#: Traced bytes per directed edge that a ``CMGraph`` may hold.
MAX_BYTES_PER_EDGE = 220

#: Traced bytes per class node that building a ``GraphIndex`` may add.
MAX_INDEX_BYTES_PER_CLASS = 40

#: ``reified_web@509``: 2 * 254 + 1 classes.
LINKS = (509 - 1) // 2


def _traced(build):
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, traced


def _model():
    model = synthetic.reified_web_model("syn_web_src", LINKS)
    assert len(model.class_names()) == 509
    return model


def test_cm_graph_bytes_per_edge():
    model = _model()
    graph, traced = _traced(lambda: CMGraph(model))
    edges = sum(1 for _ in graph.edges())
    assert edges > 1500
    per_edge = traced / edges
    assert per_edge <= MAX_BYTES_PER_EDGE, (
        f"CMGraph holds {per_edge:.0f} traced bytes per edge "
        f"({traced} bytes, {edges} edges); the bound is "
        f"{MAX_BYTES_PER_EDGE}"
    )


def test_graph_index_shares_the_graph_adjacency():
    graph = CMGraph(_model())
    index, traced = _traced(lambda: GraphIndex(graph))
    assert index.adjacency is graph.adjacency
    assert index.functional_adjacency is graph.functional_adjacency
    per_class = traced / len(index.class_nodes)
    assert per_class <= MAX_INDEX_BYTES_PER_CLASS, (
        f"building a GraphIndex traced {per_class:.0f} bytes per class "
        f"({traced} bytes); the bound is {MAX_INDEX_BYTES_PER_CLASS}"
    )
