"""Unit tests for functional-tree and lossy-path search."""

import pytest

from repro.cm import CMGraph, ConceptualModel
from repro.cm.graph import INVERSE_MARK
from repro.discovery import (
    CostModel,
    DiscoveredTree,
    direction_reversals,
    functional_trees_from_root,
    minimal_functional_trees,
    minimally_lossy_paths,
    simple_paths,
)
from repro.discovery.steiner import (
    MAX_TREE_COMBINATIONS,
    PLAIN_EDGE_COST,
    ROLE_EDGE_COST,
    edge_key,
)
from repro.perf import counters as perf_counters


def first_functional_tree(graph, root, targets):
    """The first minimal functional tree from ``root``, as
    ``(tree, covered, cost)``; an edgeless tree when there is none."""
    trees = functional_trees_from_root(graph, root, targets)
    if not trees:
        return DiscoveredTree(root, ()), frozenset(), 0
    return trees[0]


@pytest.fixture
def intern_model() -> ConceptualModel:
    """Case A.2's example: Project/Department/Employee plus Intern."""
    cm = ConceptualModel("pm")
    cm.add_class("Project", attributes=["proj"], key=["proj"])
    cm.add_class("Department", attributes=["dept"], key=["dept"])
    cm.add_class("Employee", attributes=["emp"], key=["emp"])
    cm.add_class("Intern", attributes=["iid"], key=["iid"])
    cm.add_relationship("controlledBy", "Project", "Department", "1..1", "0..*")
    cm.add_relationship("hasManager", "Department", "Employee", "1..1", "0..*")
    cm.add_relationship("works_on", "Intern", "Project", "1..1", "0..*")
    return cm


@pytest.fixture
def intern_graph(intern_model) -> CMGraph:
    return CMGraph(intern_model)


class TestCostModel:
    def test_plain_edge_cost(self, intern_graph):
        edge = intern_graph.edge("Project", "controlledBy")
        assert CostModel().cost(edge) == PLAIN_EDGE_COST

    def test_preselected_edges_free(self, intern_graph):
        edge = intern_graph.edge("Project", "controlledBy")
        model = CostModel.from_edges([edge])
        assert model.cost(edge) == 0
        # The reverse direction is free too.
        assert model.cost(edge.reversed()) == 0

    def test_role_edges_half_price(self):
        cm = ConceptualModel("m")
        cm.add_class("A", attributes=["a"], key=["a"])
        cm.add_class("B", attributes=["b"], key=["b"])
        cm.add_reified_relationship("R", roles={"ra": "A", "rb": "B"})
        graph = CMGraph(cm)
        role = graph.edge("R", "ra")
        assert CostModel().cost(role) == ROLE_EDGE_COST
        # A reified hop (two roles) costs the same as one plain edge.
        assert 2 * ROLE_EDGE_COST == PLAIN_EDGE_COST

    def test_path_cost_and_preselected_count(self, intern_graph):
        controlled = intern_graph.edge("Project", "controlledBy")
        manager = intern_graph.edge("Department", "hasManager")
        model = CostModel.from_edges([controlled])
        assert model.path_cost([controlled, manager]) == PLAIN_EDGE_COST
        assert model.preselected_count([controlled, manager]) == 1


class TestFunctionalTreeFromRoot:
    def test_case_a1_tree(self, intern_graph):
        tree, covered, cost = first_functional_tree(
            intern_graph, "Project", {"Department", "Employee"}
        )
        assert covered == {"Department", "Employee"}
        assert [e.label for e in tree.edges] == ["controlledBy", "hasManager"]
        assert cost == 2 * PLAIN_EDGE_COST

    def test_partial_coverage(self, intern_graph):
        # Employee cannot functionally reach Project (edges point the
        # other way), so only reachable targets are covered.
        tree, covered, _ = first_functional_tree(
            intern_graph, "Employee", {"Project", "Employee"}
        )
        assert covered == {"Employee"}
        assert tree.edges == ()

    def test_tied_paths_enumerate_alternatives(self):
        cm = ConceptualModel("m")
        cm.add_class("F", attributes=["f"], key=["f"])
        cm.add_class("D", attributes=["d"], key=["d"])
        cm.add_relationship("chairOf", "F", "D", "0..1", "0..1")
        cm.add_relationship("deanOf", "F", "D", "0..1", "0..1")
        graph = CMGraph(cm)
        trees = functional_trees_from_root(graph, "F", {"D"})
        labels = sorted(tree.edges[0].label for tree, _, _ in trees)
        assert labels == ["chairOf", "deanOf"]

    @staticmethod
    def _fan(targets, ties):
        """Root ``R`` reaching each target ``T<j>`` through ``ties``
        tied 2-edge paths ``R → M<j>_<i> → T<j>``: ``ties ** targets``
        minimal trees."""
        cm = ConceptualModel("fan")
        cm.add_class("R", attributes=["r"], key=["r"])
        for j in range(targets):
            cm.add_class(f"T{j}", attributes=[f"t{j}"], key=[f"t{j}"])
            for i in range(ties):
                middle = f"M{j}_{i}"
                cm.add_class(middle, attributes=[middle.lower()],
                             key=[middle.lower()])
                cm.add_relationship(f"to{middle}", "R", middle, "1..1", "0..*")
                cm.add_relationship(f"from{middle}", middle, f"T{j}",
                                    "1..1", "0..*")
        return CMGraph(cm), {f"T{j}" for j in range(targets)}

    @pytest.mark.parametrize("ties, dropped", [(5, 125 - 64), (4, None)])
    def test_untried_tree_combinations_are_counted(self, ties, dropped):
        """With 5 tied paths to each of 3 targets, the 125 minimal trees
        are cut to 64 and the 61 untried combinations are counted; with
        4, a product of exactly 64, nothing is dropped."""
        graph, targets = self._fan(targets=3, ties=ties)
        with perf_counters.scope() as frame:
            trees = functional_trees_from_root(graph, "R", targets)
        assert len(trees) == MAX_TREE_COMBINATIONS == 64
        assert frame.snapshot().get("tree_combinations_dropped") == dropped


class TestMinimalFunctionalTrees:
    def test_intern_rule(self, intern_graph):
        """The Intern-rooted tree is not minimal (Case A.2)."""
        trees = minimal_functional_trees(
            intern_graph, {"Department", "Employee"}
        )
        assert len(trees) == 1
        assert trees[0].nodes() == {"Project", "Department", "Employee"} or (
            trees[0].nodes() == {"Department", "Employee"}
        )
        assert "Intern" not in trees[0].nodes()

    def test_department_root_is_smallest(self, intern_graph):
        trees = minimal_functional_trees(
            intern_graph, {"Department", "Employee"}
        )
        # Department reaches Employee directly: two nodes beat three.
        assert trees[0].nodes() == {"Department", "Employee"}

    def test_marked_intern_forces_intern_root(self, intern_graph):
        # When Intern itself is marked, the only covering functional tree
        # runs Intern → Project → Department → Employee.
        trees = minimal_functional_trees(intern_graph, {"Employee", "Intern"})
        assert len(trees) == 1
        assert trees[0].root == "Intern"
        assert len(trees[0].edges) == 3

    def test_no_tree_when_truly_disconnected(self, intern_model):
        intern_model.add_class("Island", attributes=["x"], key=["x"])
        graph = CMGraph(intern_model)
        assert minimal_functional_trees(graph, {"Island", "Employee"}) == []

    def test_single_marked_node(self, intern_graph):
        trees = minimal_functional_trees(intern_graph, {"Project"})
        assert trees and trees[0].nodes() == {"Project"}

    def test_candidate_roots_restriction(self, intern_graph):
        trees = minimal_functional_trees(
            intern_graph,
            {"Department", "Employee"},
            candidate_roots=["Project"],
        )
        assert len(trees) == 1
        assert trees[0].root == "Project"


class TestDiscoveredTree:
    def test_paths(self, intern_graph):
        tree, _, _ = first_functional_tree(
            intern_graph, "Project", {"Employee"}
        )
        path = tree.path_from_root("Employee")
        assert [e.label for e in path] == ["controlledBy", "hasManager"]

    def test_connecting_path_reverses_up_segment(self, intern_graph):
        tree, _, _ = first_functional_tree(
            intern_graph, "Project", {"Department", "Employee"}
        )
        path = tree.connecting_path("Department", "Employee")
        assert [e.label for e in path] == ["hasManager"]
        reverse = tree.connecting_path("Employee", "Department")
        assert [e.label for e in reverse] == ["hasManager" + INVERSE_MARK]

    def test_unreachable_node_raises(self, intern_graph):
        tree, _, _ = first_functional_tree(intern_graph, "Project", set())
        with pytest.raises(ValueError):
            tree.path_from_root("Employee")


class TestLossyPaths:
    @pytest.fixture
    def books_graph(self):
        cm = ConceptualModel("books")
        cm.add_class("Person", attributes=["pname"], key=["pname"])
        cm.add_class("Book", attributes=["bid"], key=["bid"])
        cm.add_class("Bookstore", attributes=["sid"], key=["sid"])
        cm.add_relationship("writes", "Person", "Book", "0..*", "1..*")
        cm.add_relationship("soldAt", "Book", "Bookstore", "0..*", "0..*")
        return CMGraph(cm)

    def test_simple_paths_enumeration(self, books_graph):
        paths = list(simple_paths(books_graph, "Person", "Bookstore"))
        assert len(paths) == 1
        assert [e.label for e in paths[0]] == ["writes", "soldAt"]

    def test_max_edges_bound(self, books_graph):
        assert list(simple_paths(books_graph, "Person", "Bookstore", 1)) == []

    def test_example_3_2_composition(self, books_graph):
        paths = minimally_lossy_paths(books_graph, "Person", "Bookstore")
        assert len(paths) == 1
        assert [e.label for e in paths[0]] == ["writes", "soldAt"]

    def test_reversal_counting_expands_many_many(self, books_graph):
        writes = books_graph.edge("Person", "writes")
        sold = books_graph.edge("Book", "soldAt")
        # [F,T] for writes, [F,T] for soldAt → profile F,T,F,T: 3 switches.
        assert direction_reversals([writes, sold]) == 3
        assert direction_reversals([writes]) == 1

    def test_functional_paths_have_zero_reversals(self, intern_graph):
        controlled = intern_graph.edge("Project", "controlledBy")
        manager = intern_graph.edge("Department", "hasManager")
        assert direction_reversals([controlled, manager]) == 0

    def test_predicate_filters_paths(self, books_graph):
        paths = minimally_lossy_paths(
            books_graph,
            "Person",
            "Bookstore",
            predicate=lambda path: len(path) > 5,
        )
        assert paths == []

    def test_prefers_fewer_reversals(self):
        # Two routes A→C: a direct many-many edge, and a 2-hop functional
        # pair; the functional route has 0 reversals and must win.
        cm = ConceptualModel("m")
        for name in ["A", "B", "C"]:
            cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
        cm.add_relationship("direct", "A", "C", "0..*", "0..*")
        cm.add_relationship("toB", "A", "B", "1..1", "0..*")
        cm.add_relationship("toC", "B", "C", "1..1", "0..*")
        graph = CMGraph(cm)
        paths = minimally_lossy_paths(graph, "A", "C")
        assert [e.label for e in paths[0]] == ["toB", "toC"]
