"""Reasoning over conceptual models and CM-graph paths.

Bundles the semantic checks the discovery algorithm relies on:

* ISA-aware disjointness (two classes are disjoint when declared so, or
  when they specialize declared-disjoint classes);
* cardinality composition and connection category of a path of edges;
* the paper's *false-query* filter — a path that climbs an ISA edge and
  immediately descends an ISA⁻ edge into a disjoint sibling denotes the
  empty class and must be eliminated (Section 3.2);
* counting *direction reversals* (lossy joins) along a path (Section 3.3).
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from repro.cm.cardinality import Cardinality, ConnectionCategory
from repro.cm.graph import CMEdge
from repro.cm.model import ConceptualModel


class CMReasoner:
    """Semantic queries over one conceptual model.

    Holds no state beyond the model: every check computes its answer
    from the model's declarations, so a reasoner is cheap to build and
    any number of them may share one model.
    """

    def __init__(self, model: ConceptualModel) -> None:
        self.model = model

    # ------------------------------------------------------------------
    # ISA and disjointness
    # ------------------------------------------------------------------
    def ancestors_or_self(self, name: str) -> frozenset[str]:
        return self.model.superclasses(name) | {name}

    def is_subclass_of(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive ISA check."""
        return sup in self.ancestors_or_self(sub)

    def are_disjoint(self, first: str, second: str) -> bool:
        """Whether two classes can have no common instance.

        Declared disjointness is inherited: if ``disjoint(A, B)`` holds and
        ``A' ISA A``, ``B' ISA B``, then ``A'`` and ``B'`` are disjoint —
        unless one class specializes the other (then they trivially share
        instances of the subclass).
        """
        if first == second:
            return False
        if self.is_subclass_of(first, second) or self.is_subclass_of(
            second, first
        ):
            return False
        first_up = self.ancestors_or_self(first)
        second_up = self.ancestors_or_self(second)
        for group in self.model.disjointness_groups:
            hits_first = group & first_up
            hits_second = group & second_up
            # Need two *different* group members covering the two sides.
            if hits_first and hits_second and (hits_first | hits_second) > hits_first:
                return True
            if hits_first and hits_second and (hits_first | hits_second) > hits_second:
                return True
        return False

    # ------------------------------------------------------------------
    # Path composition
    # ------------------------------------------------------------------
    @staticmethod
    def compose_forward(edges: Sequence[CMEdge]) -> Cardinality:
        """Composed targets-per-source cardinality along a path."""
        if not edges:
            return Cardinality(1, 1)
        return reduce(
            Cardinality.compose, (edge.forward_card for edge in edges)
        )

    @staticmethod
    def compose_backward(edges: Sequence[CMEdge]) -> Cardinality:
        """Composed sources-per-target cardinality along a path."""
        if not edges:
            return Cardinality(1, 1)
        return reduce(
            Cardinality.compose,
            (edge.backward_card for edge in reversed(edges)),
        )

    @classmethod
    def path_category(cls, edges: Sequence[CMEdge]) -> ConnectionCategory:
        """Connection category of the composed path.

        Composing ``writes`` with ``soldAt`` in Example 1.1 yields
        many-many, which is what makes the composition compatible with the
        many-many target ``hasBookSoldAt``.
        """
        return ConnectionCategory.of(
            cls.compose_forward(edges), cls.compose_backward(edges)
        )

    @staticmethod
    def path_is_functional(edges: Sequence[CMEdge]) -> bool:
        """True when every edge is functional in the traversal direction."""
        return all(edge.is_functional for edge in edges)

    @staticmethod
    def direction_reversals(edges: Sequence[CMEdge]) -> int:
        """Number of lossy-join points along a path (Section 3.3).

        A reversal happens where the path stops being functional and then
        would need to "fan out" again: concretely, every maximal functional
        run after a non-functional step, and every non-functional step
        after a functional run, mark places where the corresponding join is
        lossy. We count the number of switches between functional and
        non-functional traversal, which the paper minimizes.
        """
        reversals = 0
        previous: bool | None = None
        for edge in edges:
            current = edge.is_functional
            if previous is not None and current != previous:
                reversals += 1
            previous = current
        return reversals

    # ------------------------------------------------------------------
    # Consistency of paths and trees
    # ------------------------------------------------------------------
    def path_is_consistent(self, edges: Sequence[CMEdge]) -> bool:
        """Reject paths denoting necessarily-empty classes.

        The paper's rule: a CSG containing an ISA edge from ``C`` up to a
        parent followed by an ISA⁻ edge down to a class ``D`` disjoint from
        ``C`` is equivalent to *false*. We check every up-run/down-run pair:
        after climbing from ``C``, descending into ``D`` requires ``C`` and
        ``D`` to be satisfiable together.
        """
        for index in range(len(edges) - 1):
            first, second = edges[index], edges[index + 1]
            up = first.is_isa and not first.is_inverse
            down = second.is_isa and second.is_inverse
            if up and down:
                origin, destination = first.source, second.target
                if self.are_disjoint(origin, destination):
                    return False
        return True

    def tree_is_consistent(self, edges: Sequence[CMEdge]) -> bool:
        """Consistency check for a tree given as an edge set.

        Beyond the path rule, a node that is simultaneously constrained to
        lie in two disjoint classes via chains of ISA⁻ edges is
        inconsistent: if two ISA⁻ edges leave the same node into disjoint
        subclasses on the same root-to-leaf path, the tree denotes false.
        This conservative check walks all consecutive pairs.
        """
        for first in edges:
            for second in edges:
                if first is second:
                    continue
                if first.target != second.source:
                    continue
                up = first.is_isa and not first.is_inverse
                down = second.is_isa and second.is_inverse
                if up and down and self.are_disjoint(first.source, second.target):
                    return False
        return True
