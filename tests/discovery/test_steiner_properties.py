"""Property-based tests on the tree/path search invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm import CMGraph, ConceptualModel
from repro.exceptions import ConceptualModelError
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


@st.composite
def long_path_graphs(draw):
    """A chain of up to 10 classes plus random chords, ISA links and a
    reified hop: simple paths run longer than any ``max_edges`` drawn
    below, so the lossy search's horizon cuts real paths. Some chain
    links are left out, so some graphs are disconnected."""
    cm = ConceptualModel("long")
    n = draw(st.integers(min_value=2, max_value=10))
    names = [f"C{index}" for index in range(n)]
    for name in names:
        cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
    for index in range(n - 1):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            continue  # a broken chain
        cm.add_relationship(
            f"p{index}",
            names[index],
            names[index + 1],
            to_card=draw(st.sampled_from(CARDS)),
            from_card=draw(st.sampled_from(CARDS)),
        )
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        domain = draw(st.sampled_from(names))
        range_ = draw(st.sampled_from(names))
        if domain == range_:
            continue
        if draw(st.booleans()):
            try:
                cm.add_isa(domain, range_)
            except ConceptualModelError:
                pass  # would close an ISA cycle
        else:
            cm.add_relationship(
                f"q{index}",
                domain,
                range_,
                to_card=draw(st.sampled_from(CARDS)),
                from_card=draw(st.sampled_from(CARDS)),
            )
    if n > 2 and draw(st.booleans()):
        first, second = draw(
            st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        )
        cm.add_reified_relationship("R", {"r1": first, "r2": second})
        names.append("R")
    return CMGraph(cm), names


def _blind_lossy_paths(graph, start, end, cost_model, max_edges):
    """The best (reversals, cost) group of every simple path, unpruned."""
    scored = [
        ((direction_reversals(path), cost_model.path_cost(path)), path)
        for path in simple_paths(graph, start, end, max_edges=max_edges)
    ]
    best = min((score for score, _ in scored), default=None)
    return sorted(
        (path for score, path in scored if score == best),
        key=lambda path: "/".join(edge.label for edge in path),
    )


def _draw_lossy_query(data):
    graph, names = data.draw(long_path_graphs())
    start, end = data.draw(
        st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    )
    edges = list(graph.edges())
    preselected = data.draw(
        st.lists(st.sampled_from(edges), max_size=3) if edges else st.just([])
    )
    return graph, start, end, CostModel.from_edges(preselected)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_oracle_matches_blind_lossy_paths(data):
    graph, start, end, cost_model = _draw_lossy_query(data)
    max_edges = data.draw(st.integers(min_value=1, max_value=6))
    guided = minimally_lossy_paths(
        _fresh(graph), start, end, cost_model, max_edges=max_edges
    )
    assert guided == _blind_lossy_paths(
        graph, start, end, cost_model, max_edges
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lossy_tables_are_not_shared_across_horizons(data):
    """The bound tables stay on the graph's index between searches; a
    search with another ``max_edges`` on the same graph must not read a
    table cut to a different horizon."""
    graph, start, end, cost_model = _draw_lossy_query(data)
    horizons = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=6),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    _fresh(graph)
    for max_edges in horizons:
        guided = minimally_lossy_paths(
            graph, start, end, cost_model, max_edges=max_edges
        )
        assert guided == _blind_lossy_paths(
            graph, start, end, cost_model, max_edges
        ), horizons
