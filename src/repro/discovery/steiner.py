"""Minimal functional trees and lossy-path search over CM graphs.

The discovery algorithm's graph-theoretic core (Sections 3.2–3.3):

* *functional trees* — trees all of whose root-to-node paths follow
  functional edges — correspond to lossless joins, so CSGs prefer them;
* *minimal functional trees* are Steiner trees over the functional
  subgraph: minimum cost (edges belonging to pre-selected s-trees are
  free; a hop through a reified relationship node counts as one edge),
  tie-broken by most pre-selected edges then fewest nodes, and finally
  filtered for node-set minimality (the "Intern" rule of Case A.2);
* when marked nodes admit no functional connection — or the target
  connection is many-to-many — the search falls back to *minimally lossy
  paths*: simple paths scored by the number of direction reversals
  (Section 3.3), then by cost.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.cm.graph import CMEdge, CMGraph
from repro.deadline import check_deadline
from repro.perf import counters as perf_counters
from repro.perf.index import GraphIndex

#: Integer edge-cost scale: a plain edge costs 2, so a role edge can cost
#: 1 and a reified hop (two role edges) totals one plain edge, per the
#: paper's "a path of length two passing through a reified relationship
#: node should be counted as a path of length 1".
PLAIN_EDGE_COST = 2
ROLE_EDGE_COST = 1
PRESELECTED_COST = 0


def edge_key(edge: CMEdge) -> tuple[str, str, str]:
    """Hashable identity of a directed CM edge."""
    return (edge.source, edge.label, edge.target)


@dataclass(frozen=True)
class CostModel:
    """Edge costs for tree/path search.

    ``preselected`` holds :func:`edge_key` values of edges appearing in
    pre-selected s-trees (in either direction); those edges are free.
    """

    preselected: frozenset[tuple[str, str, str]] = frozenset()

    @classmethod
    def from_edges(cls, edges: Iterable[CMEdge]) -> "CostModel":
        keys = set()
        for edge in edges:
            keys.add(edge_key(edge))
            keys.add(edge_key(edge.reversed()))
        return cls(frozenset(keys))

    def cost(self, edge: CMEdge) -> int:
        if edge_key(edge) in self.preselected:
            return PRESELECTED_COST
        if edge.kind == CMEdge.KIND_ROLE:
            return ROLE_EDGE_COST
        return PLAIN_EDGE_COST

    def path_cost(self, edges: Sequence[CMEdge]) -> int:
        return sum(self.cost(edge) for edge in edges)

    def preselected_count(self, edges: Sequence[CMEdge]) -> int:
        return sum(1 for edge in edges if edge_key(edge) in self.preselected)


@dataclass(frozen=True)
class DiscoveredTree:
    """A tree found in a CM graph: a root plus parent→child edges."""

    root: str
    edges: tuple[CMEdge, ...]

    def nodes(self) -> frozenset[str]:
        result = {self.root}
        for edge in self.edges:
            result.add(edge.source)
            result.add(edge.target)
        return frozenset(result)

    def undirected_edge_keys(self) -> frozenset[frozenset[tuple[str, str, str]]]:
        """Direction-insensitive edge identity (for deduplication)."""
        return frozenset(
            frozenset({edge_key(edge), edge_key(edge.reversed())})
            for edge in self.edges
        )

    def path_from_root(self, node: str) -> tuple[CMEdge, ...]:
        """The unique root→node path (nodes are unique in a tree)."""
        parent: dict[str, CMEdge] = {}
        for edge in self.edges:
            parent[edge.target] = edge
        path: list[CMEdge] = []
        current = node
        seen = set()
        while current != self.root:
            if current in seen or current not in parent:
                raise ValueError(f"node {node!r} not reachable from root")
            seen.add(current)
            edge = parent[current]
            path.append(edge)
            current = edge.source
        return tuple(reversed(path))

    def connecting_path(self, first: str, second: str) -> tuple[CMEdge, ...]:
        """The tree path first→second: up to the LCA (reversed), then down."""
        to_first = self.path_from_root(first)
        to_second = self.path_from_root(second)
        common = 0
        for a, b in zip(to_first, to_second):
            if edge_key(a) != edge_key(b):
                break
            common += 1
        up = tuple(edge.reversed() for edge in reversed(to_first[common:]))
        down = to_second[common:]
        return up + down

    def is_functional(self) -> bool:
        return all(edge.is_functional for edge in self.edges)

    def __str__(self) -> str:
        if not self.edges:
            return f"⟨{self.root}⟩"
        rendered = "; ".join(str(edge) for edge in self.edges)
        return f"⟨{self.root}: {rendered}⟩"


#: Cap on tied shortest paths kept per node during search.
MAX_TIED_PATHS = 8


def _path_sort_key(path: Sequence[CMEdge]) -> tuple:
    """Total deterministic order on paths (by their edge-key sequences)."""
    return tuple(edge_key(edge) for edge in path)


def _functional_shortest_paths(
    graph: CMGraph,
    root: str,
    cost_model: CostModel,
    adjacency: Mapping[str, tuple[CMEdge, ...]] | None = None,
) -> dict[str, tuple[int, tuple[tuple[CMEdge, ...], ...]]]:
    """Dijkstra over functional edges: node → (cost, tied shortest paths).

    All equal-cost shortest paths are retained (capped) so callers can
    enumerate alternative minimal trees — Example 1.3 needs both the
    ``chairOf`` and the ``deanOf`` connection as separate candidates.
    Tied paths are kept sorted (:func:`_path_sort_key`) before the
    ``MAX_TIED_PATHS`` cap is applied, so which ties survive never
    depends on heap pop order, and every truncation is counted under
    ``tied_paths_dropped`` instead of happening silently.

    This is the blind sweep over every reachable node. Discovery runs
    the A*-pruned :func:`_targeted_shortest_paths` instead; this
    function stays as the reference the property tests hold its target
    entries equal to. ``adjacency`` is the precomputed functional
    adjacency of a :class:`~repro.perf.index.GraphIndex`; without it,
    edges are read from the graph.
    """
    if adjacency is not None:
        edges_from = lambda node: adjacency.get(node, ())  # noqa: E731
    else:
        edges_from = graph.functional_edges_from
    distances: dict[str, tuple[int, tuple[tuple[CMEdge, ...], ...]]] = {
        root: (0, ((),))
    }
    counter = 0
    heap: list[tuple[int, int, str]] = [(0, counter, root)]
    finalized: set[str] = set()
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in finalized:
            continue
        if distances[node][0] < dist:
            continue
        finalized.add(node)
        node_cost, node_paths = distances[node]
        for edge in edges_from(node):
            step = cost_model.cost(edge)
            candidate = node_cost + step
            extensions = tuple(path + (edge,) for path in node_paths)
            current = distances.get(edge.target)
            if current is None or candidate < current[0]:
                counter += 1
                distances[edge.target] = (
                    candidate,
                    extensions[:MAX_TIED_PATHS],
                )
                heapq.heappush(heap, (candidate, counter, edge.target))
            elif candidate == current[0] and edge.target not in finalized:
                merged = sorted(
                    current[1]
                    + tuple(
                        path
                        for path in extensions
                        if path not in current[1]
                    ),
                    key=_path_sort_key,
                )
                if len(merged) > MAX_TIED_PATHS:
                    perf_counters.record(
                        "tied_paths_dropped", len(merged) - MAX_TIED_PATHS
                    )
                distances[edge.target] = (
                    candidate,
                    tuple(merged[:MAX_TIED_PATHS]),
                )
    return distances


# ---------------------------------------------------------------------------
# Distance oracle — backward tables and A*-pruned forward search
# ---------------------------------------------------------------------------


def _backward_functional_distances(
    index: GraphIndex, target: str, cost_model: CostModel
) -> dict[str, int]:
    """``node → min functional-path cost node→target`` (exact, no paths).

    One plain Dijkstra over the reversed functional adjacency; forward
    edges keep their forward cost, so the table mirrors the forward
    search's distances exactly. Missing nodes cannot reach ``target``
    at all.
    """
    reverse = index.reverse_functional_edges()
    distances: dict[str, int] = {target: 0}
    heap: list[tuple[int, str]] = [(0, target)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue
        for edge in reverse.get(node, ()):
            candidate = dist + cost_model.cost(edge)
            previous = distances.get(edge.source)
            if previous is None or candidate < previous:
                distances[edge.source] = candidate
                heapq.heappush(heap, (candidate, edge.source))
    return distances


def _backward_tables(
    index: GraphIndex, targets: Iterable[str], cost_model: CostModel
) -> dict[str, dict[str, int]]:
    """Per-target backward distance tables, cached on the graph's index."""
    return {
        target: index.oracle_table(
            ("bd", target, cost_model),
            lambda target=target: _backward_functional_distances(
                index, target, cost_model
            ),
        )
        for target in sorted(set(targets))
    }


def _targeted_shortest_paths(
    graph: CMGraph,
    root: str,
    cost_model: CostModel,
    adjacency: Mapping[str, tuple[CMEdge, ...]],
    backward: Mapping[str, Mapping[str, int]],
    root_bounds: Mapping[str, int],
) -> dict[str, tuple[int, tuple[tuple[CMEdge, ...], ...]]]:
    """A*-pruned Dijkstra: exact target entries at a fraction of the work.

    Same algorithm (and the same deterministic tied-path semantics) as
    :func:`_functional_shortest_paths`, with two oracle-derived exact
    cuts:

    * a finalized node ``v`` is only *expanded* when some target ``t``
      satisfies ``dist(v) + bd_t(v) <= bd_t(root)`` — i.e. ``v`` lies on
      a shortest ``root→t`` path. A node failing the test contributes no
      tied shortest path to any node that lies on one, so every
      ``paths[target]`` entry is bit-for-bit what the blind sweep
      produces;
    * the sweep stops once every oracle-reachable target is finalized —
      later pops can no longer merge into a finalized entry.

    ``root_bounds`` maps each reachable target to ``bd_t(root)``;
    unreachable targets are simply absent (matching the blind sweep,
    where they never enter the table).
    """
    perf_counters.record("dijkstra_sweeps")
    edges_from = lambda node: adjacency.get(node, ())  # noqa: E731
    checks = tuple(
        (backward[target], bound) for target, bound in root_bounds.items()
    )
    pending = set(root_bounds)
    distances: dict[str, tuple[int, tuple[tuple[CMEdge, ...], ...]]] = {
        root: (0, ((),))
    }
    counter = 0
    heap: list[tuple[int, int, str]] = [(0, counter, root)]
    finalized: set[str] = set()
    while heap:
        check_deadline()
        dist, _, node = heapq.heappop(heap)
        if node in finalized:
            continue
        if distances[node][0] < dist:
            continue
        finalized.add(node)
        if node in pending:
            pending.discard(node)
            if not pending:
                break
        on_tight_path = False
        for table, bound in checks:
            remaining = table.get(node)
            if remaining is not None and dist + remaining <= bound:
                on_tight_path = True
                break
        if not on_tight_path:
            perf_counters.record("bound_prunes")
            continue
        perf_counters.record("astar_expansions")
        node_cost, node_paths = distances[node]
        for edge in edges_from(node):
            step = cost_model.cost(edge)
            candidate = node_cost + step
            extensions = tuple(path + (edge,) for path in node_paths)
            current = distances.get(edge.target)
            if current is None or candidate < current[0]:
                counter += 1
                distances[edge.target] = (
                    candidate,
                    extensions[:MAX_TIED_PATHS],
                )
                heapq.heappush(heap, (candidate, counter, edge.target))
            elif candidate == current[0] and edge.target not in finalized:
                merged = sorted(
                    current[1]
                    + tuple(
                        path
                        for path in extensions
                        if path not in current[1]
                    ),
                    key=_path_sort_key,
                )
                if len(merged) > MAX_TIED_PATHS:
                    perf_counters.record(
                        "tied_paths_dropped", len(merged) - MAX_TIED_PATHS
                    )
                distances[edge.target] = (
                    candidate,
                    tuple(merged[:MAX_TIED_PATHS]),
                )
    return distances


def functional_trees_from_root(
    graph: CMGraph,
    root: str,
    targets: Iterable[str],
    cost_model: CostModel | None = None,
    max_combinations: int = 64,
) -> list[tuple[DiscoveredTree, frozenset[str], int]]:
    """Minimal functional trees rooted at ``root`` reaching ``targets``.

    Unreachable targets are left out (Case A.1: "connect as many nodes as
    possible ... and leave the rest unconnected"). Tied shortest paths are
    enumerated, so alternative connections of equal cost — Example 1.3's
    ``chairOf`` vs ``deanOf`` — each yield their own tree. Only trees of
    minimal union cost are returned.

    The shortest-path sweep (:func:`_targeted_shortest_paths`) is
    A*-pruned against per-target backward tables, which the graph's
    :class:`~repro.perf.index.GraphIndex` caches; its target entries are
    those of the blind sweep :func:`_functional_shortest_paths`.
    """
    cost_model = cost_model or CostModel()
    index = GraphIndex.of(graph)
    target_set = set(targets)
    backward = _backward_tables(index, target_set, cost_model)
    root_bounds = {
        target: table[root]
        for target, table in backward.items()
        if root in table
    }
    paths = _targeted_shortest_paths(
        graph,
        root,
        cost_model,
        index.functional_adjacency,
        backward,
        root_bounds,
    )
    return _trees_from_paths(
        root, paths, target_set, cost_model, max_combinations
    )


def _trees_from_paths(
    root: str,
    paths: Mapping[str, tuple[int, tuple[tuple[CMEdge, ...], ...]]],
    target_set: set[str],
    cost_model: CostModel,
    max_combinations: int = 64,
) -> list[tuple[DiscoveredTree, frozenset[str], int]]:
    """The minimal-cost trees a shortest-path table yields for targets."""
    covered = frozenset(t for t in target_set if t in paths)
    choices = [paths[target][1] for target in sorted(covered)]
    results: list[tuple[int, DiscoveredTree]] = []
    seen: set[frozenset] = set()
    for index, combination in enumerate(itertools.product(*choices)):
        if index >= max_combinations:
            break
        edges: dict[tuple[str, str, str], CMEdge] = {}
        parents: dict[str, str] = {}
        valid = True
        total = 0
        for path in combination:
            for edge in path:
                key = edge_key(edge)
                if key in edges:
                    continue
                if edge.target in parents or edge.target == root:
                    # A second incoming edge breaks tree shape; such a
                    # union of tied paths is not a valid candidate.
                    valid = False
                    break
                parents[edge.target] = edge.source
                edges[key] = edge
                total += cost_model.cost(edge)
            if not valid:
                break
        if not valid:
            continue
        signature = frozenset(edges)
        if signature in seen:
            continue
        seen.add(signature)
        results.append((total, DiscoveredTree(root, tuple(edges.values()))))
    if not results:
        return []
    best = min(total for total, _ in results)
    return [
        (tree, covered, total)
        for total, tree in results
        if total == best
    ]


def minimal_functional_trees(
    graph: CMGraph,
    targets: Iterable[str],
    cost_model: CostModel | None = None,
    candidate_roots: Iterable[str] | None = None,
) -> list[DiscoveredTree]:
    """All minimal functional trees covering every marked node (Case A.2).

    Candidates are built per root via shortest functional paths; kept are
    those with (1) minimal cost, (2) — among those — the most pre-selected
    edges and fewest nodes, and (3) node-set minimality: a tree whose node
    set strictly contains another candidate's node set is discarded, which
    is exactly why the tree rooted at ``Intern`` loses to the tree rooted
    at ``Project`` in the paper's example.
    """
    cost_model = cost_model or CostModel()
    target_set = set(targets)
    roots = (
        tuple(candidate_roots)
        if candidate_roots is not None
        else graph.class_nodes()
    )
    # A root missing from any target's backward table cannot cover
    # that target, so its whole per-root search would be discarded by
    # the coverage check in ``_select_minimal_trees`` — skip it.
    index = GraphIndex.of(graph)
    tables = list(_backward_tables(index, target_set, cost_model).values())
    qualified = tuple(
        root for root in roots if all(root in table for table in tables)
    )
    if len(qualified) < len(roots):
        perf_counters.record("bound_prunes", len(roots) - len(qualified))
    return _select_minimal_trees(
        (
            found
            for root in qualified
            for found in functional_trees_from_root(
                graph, root, target_set, cost_model
            )
        ),
        target_set,
        cost_model,
    )


def _select_minimal_trees(
    per_root: Iterable[tuple[DiscoveredTree, frozenset[str], int]],
    target_set: set[str],
    cost_model: CostModel,
) -> list[DiscoveredTree]:
    """The Case A.2 winners among per-root ``(tree, covered, cost)``."""
    complete: list[tuple[int, int, int, DiscoveredTree]] = [
        (
            cost,
            -cost_model.preselected_count(tree.edges),
            len(tree.nodes()),
            tree,
        )
        for tree, covered, cost in per_root
        if covered == frozenset(target_set)
    ]
    if not complete:
        return []
    # Node-set minimality first (independent of cost ranking).
    trees = [entry[3] for entry in complete]
    node_sets = [tree.nodes() for tree in trees]
    minimal_entries = []
    for index, entry in enumerate(complete):
        if any(
            node_sets[other] < node_sets[index]
            for other in range(len(trees))
            if other != index
        ):
            continue
        minimal_entries.append(entry)
    best = min(entry[:3] for entry in minimal_entries)
    survivors = [
        entry[3] for entry in minimal_entries if entry[:3] == best
    ]
    # Deduplicate trees with identical undirected edge sets (different
    # roots of the same tree yield the same conceptual subgraph).
    unique: list[DiscoveredTree] = []
    seen: set[frozenset] = set()
    for tree in survivors:
        signature = tree.undirected_edge_keys() or frozenset({tree.root})
        if signature not in seen:
            seen.add(signature)
            unique.append(tree)
    return unique


# ---------------------------------------------------------------------------
# Lossy (non-functional) path search — Section 3.3
# ---------------------------------------------------------------------------


def expanded_functionality_profile(edges: Sequence[CMEdge]) -> list[bool]:
    """Up/down steps of a path, with many-many edges in reified form.

    Each step is ``True`` for "down" (along a functional direction) and
    ``False`` for "up" (against one):

    * an edge functional in **both** directions (ISA) is level — skipped,
      so reversal counts are symmetric under path reversal;
    * functional forward only → one down step;
    * functional backward only → one up step;
    * functional in neither direction (a many-many hop, i.e. an elided
      reified node ``--role⁻-- R◇ --role--``) → up then down.
    """
    profile: list[bool] = []
    for edge in edges:
        forward = edge.is_functional
        backward = edge.backward_card.is_functional
        if forward and backward:
            continue  # level step: no lossy potential either way
        if forward:
            profile.append(True)
        elif backward:
            profile.append(False)
        else:
            profile.extend((False, True))
    return profile


def direction_reversals(edges: Sequence[CMEdge]) -> int:
    """Lossy-join score: up/down switches along the path (Section 3.3).

    Symmetric: a path and its reverse score the same number of reversals.
    """
    profile = expanded_functionality_profile(edges)
    reversals = 0
    for previous, current in zip(profile, profile[1:]):
        if previous != current:
            reversals += 1
    return reversals


def _make_out_edges(
    graph: CMGraph, index: GraphIndex
) -> Callable[[str], tuple[CMEdge, ...]]:
    """Adjacency lookup through the index, falling back to the graph.

    The fallback preserves the graph's error behaviour for nodes the
    index does not cover (e.g. an unknown start node still raises).
    """
    adjacency = index.adjacency

    def out_edges(node: str) -> tuple[CMEdge, ...]:
        edges = adjacency.get(node)
        if edges is None:
            return graph.edges_from(node)
        return edges

    return out_edges


def simple_paths(
    graph: CMGraph,
    start: str,
    end: str,
    max_edges: int = 6,
) -> Iterator[tuple[CMEdge, ...]]:
    """All simple (node-repetition-free) paths start→end up to a bound.

    Iterative depth-first enumeration (the seed recursed, rebuilding a
    frozenset per step); yields in the same pre-order as the recursive
    version. A path stops at ``end`` — paths never pass through it.
    """
    out_edges = _make_out_edges(graph, GraphIndex.of(graph))
    path: list[CMEdge] = []
    seen: set[str] = {start}
    stack: list[Iterator[CMEdge]] = [iter(out_edges(start))]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if path:
                seen.discard(path.pop().target)
            continue
        if edge.target in seen:
            continue
        if edge.target == end:
            yield tuple(path) + (edge,)
            continue
        if len(path) + 1 >= max_edges:
            continue
        path.append(edge)
        seen.add(edge.target)
        stack.append(iter(out_edges(edge.target)))


def _extend_reversal_state(
    reversals: int, last_step: bool | None, edge: CMEdge
) -> tuple[int, bool | None]:
    """Fold one edge into the incremental (reversals, last step) state.

    Mirrors :func:`expanded_functionality_profile` edge-by-edge, so the
    running count of a prefix equals ``direction_reversals(prefix)`` —
    and, both the count and the path cost being monotone under
    extension, a prefix already worse than the best complete path can be
    pruned.
    """
    forward = edge.is_functional
    backward = edge.backward_card.is_functional
    if forward and backward:
        return reversals, last_step
    if forward:
        steps: tuple[bool, ...] = (True,)
    elif backward:
        steps = (False,)
    else:
        steps = (False, True)
    for step in steps:
        if last_step is not None and step != last_step:
            reversals += 1
        last_step = step
    return reversals, last_step


def _lossy_bound_tables(
    index: GraphIndex, end: str, cost_model: CostModel, horizon: int
) -> tuple[dict[str, int], dict[tuple[str, bool | None], int]]:
    """Admissible completion bounds for the lossy branch-and-bound.

    Returns ``(cost_to_end, reversals_to_end)`` over the nodes within
    ``horizon`` hops of ``end`` (the *ball*):

    * ``cost_to_end[v]`` — minimum cost of *any* path ``v→end`` inside
      the ball; missing nodes have no path of at most ``horizon`` edges
      to ``end`` at all;
    * ``reversals_to_end[(v, f)]`` — minimum *internal* direction
      reversals of any path ``v→end`` inside the ball whose first
      non-level profile step is ``f`` (``None`` = an all-level path,
      e.g. pure ISA hops). The junction reversal against the prefix's
      last step is added by the caller; see
      :func:`_extend_reversal_state` for the step algebra.

    A search capped at ``horizon + 1`` edges reaches a node after at
    least one edge, so every completion it can still take has at most
    ``horizon`` edges and stays inside the ball: simple completions are
    a subset of the ball's paths, and both tables lower-bound them.

    Both are single backward Dijkstras over the ball — the second over
    the tripled state space ``(node, first remaining step ∈ {None, up,
    down})``.
    """
    adjacency = index.adjacency
    # The graph holds both directions of every link, so the nodes one
    # hop before ``node`` are the targets of its own out-edges.
    # The sweep stops when no new node is reached, so its work is
    # bounded by the graph, not by ``horizon``.
    ball = {end}
    frontier = [end]
    hops = 0
    while frontier and hops < horizon:
        hops += 1
        reached = []
        for node in frontier:
            for edge in adjacency.get(node, ()):
                if edge.target not in ball:
                    ball.add(edge.target)
                    reached.append(edge.target)
        frontier = reached
    reverse: dict[str, list[CMEdge]] = {}
    for node in ball:
        for edge in adjacency.get(node, ()):
            if edge.target in ball:
                reverse.setdefault(edge.target, []).append(edge)

    cost_to_end: dict[str, int] = {end: 0}
    heap: list[tuple[int, str]] = [(0, end)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > cost_to_end[node]:
            continue
        for edge in reverse.get(node, ()):
            candidate = dist + cost_model.cost(edge)
            previous = cost_to_end.get(edge.source)
            if previous is None or candidate < previous:
                cost_to_end[edge.source] = candidate
                heapq.heappush(heap, (candidate, edge.source))

    reversals_to_end: dict[tuple[str, bool | None], int] = {(end, None): 0}
    counter = 0
    state_heap: list[tuple[int, int, str, bool | None]] = [(0, 0, end, None)]
    while state_heap:
        value, _, node, first = heapq.heappop(state_heap)
        if value > reversals_to_end[(node, first)]:
            continue

        def relax(state: tuple[str, bool | None], candidate: int) -> None:
            nonlocal counter
            previous = reversals_to_end.get(state)
            if previous is None or candidate < previous:
                reversals_to_end[state] = candidate
                counter += 1
                heapq.heappush(
                    state_heap, (candidate, counter, state[0], state[1])
                )

        for edge in reverse.get(node, ()):
            forward = edge.is_functional
            backward = edge.backward_card.is_functional
            if forward and backward:
                # Level edge: passes the remaining-profile state through.
                relax((edge.source, first), value)
            elif forward:
                # One "down" step, then the rest of the path.
                junction = 0 if first in (None, True) else 1
                relax((edge.source, True), value + junction)
            elif backward:
                # One "up" step.
                junction = 0 if first in (None, False) else 1
                relax((edge.source, False), value + junction)
            else:
                # Many-many hop: "up" then "down" (one internal reversal).
                junction = 0 if first in (None, True) else 1
                relax((edge.source, False), value + 1 + junction)
    return cost_to_end, reversals_to_end


def _reversal_bound(
    reversals_to_end: Mapping[tuple[str, bool | None], int],
    node: str,
    last_step: bool | None,
) -> int:
    """Min extra reversals of any completion from ``node`` (admissible)."""
    best: int | None = None
    for first in (None, True, False):
        value = reversals_to_end.get((node, first))
        if value is None:
            continue
        if last_step is not None and first is not None and first != last_step:
            value += 1
        if best is None or value < best:
            best = value
    return 0 if best is None else best


def minimally_lossy_paths(
    graph: CMGraph,
    start: str,
    end: str,
    cost_model: CostModel | None = None,
    max_edges: int = 6,
    predicate: Callable[[tuple[CMEdge, ...]], bool] | None = None,
    prefix_predicate: Callable[[tuple[CMEdge, ...]], bool] | None = None,
) -> list[tuple[CMEdge, ...]]:
    """Paths start→end ranked by (reversals, cost); best group returned.

    ``predicate`` filters candidate paths (e.g. "composed category must be
    many-many", or a consistency check); by default all simple paths
    qualify. ``prefix_predicate`` is an optional *monotone* filter on
    path prefixes: returning ``False`` must imply that every extension
    would fail ``predicate`` (e.g. the CM reasoner's pairwise ISA
    disjointness check). Failing prefixes prune their whole subtree
    without changing the surviving set.

    Implemented as an iterative branch-and-bound: the (reversals, cost)
    score of a partial path is a lower bound for every completion, so
    once a complete accepted path scores ``best``, any prefix scoring
    strictly worse is abandoned (counted under ``lossy_paths_pruned``).
    The bound is tightened by remaining-cost and remaining-reversal
    tables over the nodes a completion can still reach within
    ``max_edges`` (:func:`_lossy_bound_tables`), so a prefix is dropped
    as soon as *no completion* can tie the incumbent — oracle-strengthened
    prunes are additionally counted under ``bound_prunes``. The surviving
    set and its order are identical to exhaustively enumerating
    :func:`simple_paths` and keeping the best-scoring ones.
    """
    cost_model = cost_model or CostModel()
    index = GraphIndex.of(graph)
    out_edges = _make_out_edges(graph, index)
    # No completion is longer than ``max_edges - 1`` edges (see
    # :func:`_lossy_bound_tables`).
    horizon = max(max_edges - 1, 0)
    cost_to_end, reversals_to_end = index.oracle_table(
        ("lossy", end, cost_model, horizon),
        lambda: _lossy_bound_tables(index, end, cost_model, horizon),
    )
    best: tuple[int, int] | None = None
    found: list[tuple[int, int, tuple[CMEdge, ...]]] = []
    path: list[CMEdge] = []
    seen: set[str] = {start}
    # Each frame: the node's edge iterator plus the incremental
    # (reversals, last profile step, cost) state of the path so far.
    stack: list[tuple[Iterator[CMEdge], int, bool | None, int]] = [
        (iter(out_edges(start)), 0, None, 0)
    ]
    while stack:
        iterator, reversals, last_step, cost = stack[-1]
        edge = next(iterator, None)
        if edge is None:
            stack.pop()
            if path:
                seen.discard(path.pop().target)
            continue
        if edge.target in seen:
            continue
        check_deadline()
        perf_counters.record("lossy_paths_expanded")
        new_reversals, new_last = _extend_reversal_state(
            reversals, last_step, edge
        )
        new_cost = cost + cost_model.cost(edge)
        remaining_cost = cost_to_end.get(edge.target)
        if remaining_cost is None:
            # No path of at most ``horizon`` edges reaches ``end``
            # from here: no completion exists at all.
            perf_counters.record("lossy_paths_pruned")
            perf_counters.record("bound_prunes")
            continue
        if best is not None:
            remaining_reversals = _reversal_bound(
                reversals_to_end, edge.target, new_last
            )
            if (
                new_reversals + remaining_reversals,
                new_cost + remaining_cost,
            ) > best:
                perf_counters.record("lossy_paths_pruned")
                if remaining_reversals or remaining_cost:
                    perf_counters.record("bound_prunes")
                continue
        if prefix_predicate is not None and not prefix_predicate(
            tuple(path) + (edge,)
        ):
            perf_counters.record("lossy_prefix_skips")
            continue
        if edge.target == end:
            candidate = tuple(path) + (edge,)
            if predicate is None or predicate(candidate):
                score = (new_reversals, new_cost)
                if best is None or score < best:
                    best = score
                found.append((new_reversals, new_cost, candidate))
            continue
        if len(path) + 1 >= max_edges:
            continue
        path.append(edge)
        seen.add(edge.target)
        stack.append(
            (iter(out_edges(edge.target)), new_reversals, new_last, new_cost)
        )
    if best is None:
        return []
    survivors = [entry for entry in found if (entry[0], entry[1]) == best]
    survivors.sort(key=lambda entry: _path_text(entry[2]))
    return [entry_path for _, _, entry_path in survivors]


def _path_text(path: Sequence[CMEdge]) -> str:
    return "/".join(edge.label for edge in path)
