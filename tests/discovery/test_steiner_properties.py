"""Property-based tests on the tree/path search invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm import CMGraph, ConceptualModel
from repro.discovery import (
    CostModel,
    direction_reversals,
    functional_trees_from_root,
    minimal_functional_trees,
    minimally_lossy_paths,
    simple_paths,
)
from repro.discovery.steiner import (
    _functional_shortest_paths,
    _select_minimal_trees,
    _trees_from_paths,
)

NAMES = ["A", "B", "C", "D", "E"]
CARDS = ["0..1", "1..1", "0..*", "1..*"]


@st.composite
def cm_graphs(draw):
    cm = ConceptualModel("g")
    n = draw(st.integers(min_value=2, max_value=5))
    for name in NAMES[:n]:
        cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
    n_rels = draw(st.integers(min_value=1, max_value=6))
    for index in range(n_rels):
        domain = draw(st.sampled_from(NAMES[:n]))
        range_ = draw(st.sampled_from(NAMES[:n]))
        if domain == range_:
            continue
        cm.add_relationship(
            f"r{index}",
            domain,
            range_,
            to_card=draw(st.sampled_from(CARDS)),
            from_card=draw(st.sampled_from(CARDS)),
        )
    return CMGraph(cm), NAMES[:n]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_functional_trees_are_functional_and_rooted(data):
    graph, names = data.draw(cm_graphs())
    root = data.draw(st.sampled_from(names))
    targets = set(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    )
    for tree, covered, cost in functional_trees_from_root(
        graph, root, targets
    ):
        assert tree.root == root
        assert all(edge.is_functional for edge in tree.edges)
        assert covered <= targets | {root} or covered <= set(names)
        assert cost >= 0
        # Every covered target is actually in the tree.
        for target in covered:
            assert target in tree.nodes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_trees_cover_all_targets(data):
    graph, names = data.draw(cm_graphs())
    targets = set(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    )
    for tree in minimal_functional_trees(graph, targets):
        assert targets <= tree.nodes()
        assert all(edge.is_functional for edge in tree.edges)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_minimal_trees_node_minimality(data):
    graph, names = data.draw(cm_graphs())
    targets = set(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    )
    trees = minimal_functional_trees(graph, targets)
    for first in trees:
        for second in trees:
            assert not (first.nodes() < second.nodes())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reversals_symmetric_under_path_reversal(data):
    graph, names = data.draw(cm_graphs())
    start = data.draw(st.sampled_from(names))
    end = data.draw(st.sampled_from(names))
    if start == end:
        return
    for path in list(simple_paths(graph, start, end, max_edges=4))[:10]:
        reverse = tuple(edge.reversed() for edge in reversed(path))
        assert direction_reversals(path) == direction_reversals(reverse)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lossy_paths_connect_endpoints(data):
    graph, names = data.draw(cm_graphs())
    start = data.draw(st.sampled_from(names))
    end = data.draw(st.sampled_from(names))
    if start == end:
        return
    for path in minimally_lossy_paths(graph, start, end, max_edges=4):
        assert path[0].source == start
        assert path[-1].target == end
        # Simple: no repeated nodes.
        nodes = [start] + [edge.target for edge in path]
        assert len(nodes) == len(set(nodes))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lossy_paths_share_minimal_score(data):
    graph, names = data.draw(cm_graphs())
    start = data.draw(st.sampled_from(names))
    end = data.draw(st.sampled_from(names))
    if start == end:
        return
    cost_model = CostModel()
    results = minimally_lossy_paths(graph, start, end, cost_model, max_edges=4)
    if not results:
        return
    scores = {
        (direction_reversals(path), cost_model.path_cost(path))
        for path in results
    }
    assert len(scores) == 1
    best = scores.pop()
    for path in simple_paths(graph, start, end, max_edges=4):
        candidate = (
            direction_reversals(path),
            cost_model.path_cost(path),
        )
        assert candidate >= best


# ----------------------------------------------------------------------
# Oracle-guided search must be indistinguishable from blind search: the
# references are the blind Dijkstra sweep and exhaustive enumeration.
# ----------------------------------------------------------------------
def _fresh(graph):
    """Drop shared indexes so each search starts cold on this graph."""
    from repro.perf.index import GraphIndex

    GraphIndex.clear_registry()
    return graph


def _blind_trees_from_root(graph, root, targets):
    cost_model = CostModel()
    paths = _functional_shortest_paths(graph, root, cost_model)
    return _trees_from_paths(root, paths, set(targets), cost_model)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_oracle_matches_blind_functional_trees(data):
    graph, names = data.draw(cm_graphs())
    root = data.draw(st.sampled_from(names))
    targets = set(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    )
    guided = list(functional_trees_from_root(_fresh(graph), root, targets))
    blind = _blind_trees_from_root(graph, root, targets)
    assert [(t.edges, c, s) for t, c, s in guided] == [
        (t.edges, c, s) for t, c, s in blind
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_oracle_matches_blind_minimal_trees(data):
    graph, names = data.draw(cm_graphs())
    targets = set(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    )
    guided = minimal_functional_trees(_fresh(graph), targets)
    # Every root, unpruned, each searched by the blind sweep.
    blind = _select_minimal_trees(
        (
            found
            for root in graph.class_nodes()
            for found in _blind_trees_from_root(graph, root, targets)
        ),
        targets,
        CostModel(),
    )
    assert [t.edges for t in guided] == [t.edges for t in blind]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_oracle_matches_blind_lossy_paths(data):
    graph, names = data.draw(cm_graphs())
    start = data.draw(st.sampled_from(names))
    end = data.draw(st.sampled_from(names))
    if start == end:
        return
    guided = minimally_lossy_paths(_fresh(graph), start, end, max_edges=4)
    cost_model = CostModel()
    scored = [
        ((direction_reversals(path), cost_model.path_cost(path)), path)
        for path in simple_paths(graph, start, end, max_edges=4)
    ]
    best = min((score for score, _ in scored), default=None)
    blind = sorted(
        (path for score, path in scored if score == best),
        key=lambda path: "/".join(edge.label for edge in path),
    )
    assert guided == blind
