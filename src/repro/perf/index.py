"""Per-``CMGraph`` indexes and cached tables for the discovery search.

A :class:`GraphIndex` holds what the tree/path search reads from a CM
graph: the class-node list, the reified-node set, and the graph's own
full and functional adjacency (references to the graph's tables, not
copies). It lazily builds the reverse functional map and caches the
distance oracle's tables (backward distances and lossy lower bounds)
keyed by kind, node and ``CostModel`` (and, for the lossy bounds, the
search horizon).

Correctness rests on *invalidation by immutability*: a ``CMGraph`` is
fully built in its constructor and never mutated afterwards, so an index
taken at any point stays valid for the graph's lifetime. Indexes are
shared through a weak-keyed registry (the index holds no reference back
to the graph, so entries die exactly when their graph does).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable

from repro.perf import counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cm.graph import CMEdge, CMGraph


class GraphIndex:
    """Shared adjacency and cached search tables for one CM graph."""

    __slots__ = (
        "class_nodes",
        "reified_nodes",
        "adjacency",
        "functional_adjacency",
        "_reverse_functional",
        "_oracle",
        "__weakref__",
    )

    def __init__(self, graph: "CMGraph") -> None:
        self.class_nodes: tuple[str, ...] = graph.class_nodes()
        self.reified_nodes: frozenset[str] = frozenset(
            node for node in self.class_nodes if graph.is_reified(node)
        )
        # The graph's own tables, shared: ``edges_from`` and
        # ``functional_edges_from`` of every class node.
        self.adjacency = graph.adjacency
        self.functional_adjacency = graph.functional_adjacency
        # Lazily-built reverse functional adjacency (distance-oracle
        # support).
        self._reverse_functional: dict[str, tuple["CMEdge", ...]] | None = None
        # Distance-oracle tables, namespaced by kind:
        # ("bd", target, CostModel)    → node → min functional cost node→target
        # ("lossy", end, CostModel, horizon)
        #                              → lower-bound tables for the
        #                                branch-and-bound lossy search,
        #                                over the nodes within
        #                                ``horizon`` hops of ``end``.
        # Invalidation by immutability: the graph is never mutated, the
        # index dies with it, and :meth:`clear_registry`
        # (called by ``perf.clear_caches``) drops every shared index.
        self._oracle: dict[tuple, object] = {}

    _REGISTRY: "weakref.WeakKeyDictionary[CMGraph, GraphIndex]" = (
        weakref.WeakKeyDictionary()
    )

    @classmethod
    def of(cls, graph: "CMGraph") -> "GraphIndex":
        """The shared index of ``graph``."""
        index = cls._REGISTRY.get(graph)
        if index is None:
            index = cls(graph)
            cls._REGISTRY[graph] = index
        return index

    @classmethod
    def clear_registry(cls) -> None:
        """Drop every shared index (benchmarks use this to force cold runs)."""
        cls._REGISTRY.clear()

    def out_edges(self, node: str) -> tuple["CMEdge", ...]:
        """Non-attribute outgoing edges (the graph's, already sorted)."""
        return self.adjacency[node]

    def reverse_functional_edges(self) -> dict[str, tuple["CMEdge", ...]]:
        """``node → incoming functional edges``, built on first request.

        The edges kept are the *forward* edges (so their cost under a
        :class:`CostModel` is the cost of traversing them forward),
        grouped by their target node.
        """
        reverse = self._reverse_functional
        if reverse is None:
            grouped: dict[str, list["CMEdge"]] = {}
            for edges in self.functional_adjacency.values():
                for edge in edges:
                    grouped.setdefault(edge.target, []).append(edge)
            reverse = {node: tuple(edges) for node, edges in grouped.items()}
            self._reverse_functional = reverse
        return reverse

    def oracle_table(
        self,
        key: tuple,
        compute: Callable[[], object],
    ):
        """A cached distance-oracle table (backward distances, lossy bounds).

        ``key`` is namespaced by the caller (e.g. ``("bd", target,
        cost_model)``); ``compute`` runs on a miss. Tables die with the
        index, so :meth:`clear_registry` invalidates them together with
        every other per-graph artifact.
        """
        table = self._oracle.get(key)
        if table is not None:
            counters.record("oracle_cache_hits")
            return table
        counters.record("oracle_cache_misses")
        counters.record("oracle_sweeps")
        table = compute()
        self._oracle[key] = table
        return table

    def __repr__(self) -> str:
        return (
            f"GraphIndex(classes={len(self.class_nodes)}, "
            f"oracle_tables={len(self._oracle)})"
        )
