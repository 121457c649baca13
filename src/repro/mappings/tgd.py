"""Source-to-target tuple-generating dependencies (GLAV mappings).

The output formalism of both the semantic approach and the RIC-based
baseline (Section 1): ``∀x̄ (φ_S(x̄) → ∃ȳ ψ_T(x̄', ȳ))`` with ``φ_S`` a
conjunction over source tables and ``ψ_T`` over target tables, sharing
the exported variables. Rendering follows the paper's ``M1``–``M5``
notation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import QueryError
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Variable,
)


@dataclass(frozen=True)
class SourceToTargetTGD:
    """A GLAV mapping given by a source query and a target query.

    The two queries share head terms positionally: position ``i`` of the
    source head feeds position ``i`` of the target head. Variables
    existential in the target body (not exported) are the ``∃``-quantified
    ones of the tgd.
    """

    source: ConjunctiveQuery
    target: ConjunctiveQuery
    name: str = "M"

    def __post_init__(self) -> None:
        if len(self.source.head_terms) != len(self.target.head_terms):
            raise QueryError(
                "source and target queries must export the same number of "
                f"terms: {len(self.source.head_terms)} vs "
                f"{len(self.target.head_terms)}"
            )

    @property
    def exported_arity(self) -> int:
        return len(self.source.head_terms)

    def universal_variables(self) -> tuple[Variable, ...]:
        return self.source.body_variables()

    def existential_variables(self) -> tuple[Variable, ...]:
        exported = set(self.target.head_variables())
        return tuple(
            variable
            for variable in self.target.body_variables()
            if variable not in exported
        )

    def render(self) -> str:
        """The paper's notation, e.g.::

            M: ∀pname, bid.(person(pname) ∧ writes(pname, bid)
               → ∃x hasBookSoldAt(pname, x))
        """
        universal = ", ".join(v.name for v in self.universal_variables())
        source_body = " ∧ ".join(
            _strip(atom) for atom in sorted(self.source.body)
        )
        existential = ", ".join(
            v.name for v in self.existential_variables()
        )
        target_body = " ∧ ".join(
            _strip(atom) for atom in sorted(self.target.body)
        )
        head = f"∃{existential} " if existential else ""
        return (
            f"{self.name}: ∀{universal}.({source_body} → {head}{target_body})"
        )

    def __str__(self) -> str:
        return self.render()


def _strip(atom: Atom) -> str:
    args = ", ".join(str(term) for term in atom.terms)
    return f"{atom.bare_predicate}({args})"


def align_queries(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> SourceToTargetTGD:
    """Build a tgd, renaming target variables so exports share names.

    The source and target queries are produced independently; this renames
    each target head variable to the source head variable at the same
    position (and freshens any clashing target body variable). The
    renaming applies in one step, so heads that swap names
    (``ans(x, y)`` against ``ans(y, x)``) align positionally.
    """
    if len(source.head_terms) != len(target.head_terms):
        raise QueryError("cannot align queries of different head arity")
    renaming: dict[Variable, Variable] = {}
    for source_term, target_term in zip(source.head_terms, target.head_terms):
        if isinstance(target_term, Variable) and isinstance(
            source_term, Variable
        ):
            renaming.setdefault(target_term, source_term)
    # Freshen non-exported target variables that clash with source ones.
    source_variables = set(source.variables())
    for variable in target.variables():
        if variable in renaming:
            continue
        if variable in source_variables:
            fresh = Variable(f"{variable.name}_t")
            counter = 2
            while fresh in source_variables or fresh in renaming.values():
                fresh = Variable(f"{variable.name}_t{counter}")
                counter += 1
            renaming[variable] = fresh
    return SourceToTargetTGD(source, target.rename(renaming))
