"""Soundness of the LAV rewriting: every rewriting's expansion is
contained in the original query.

The classical correctness criterion for answering-queries-using-views:
replacing each table atom of a rewriting by its view body (renamed
apart) must yield a query contained in the one being rewritten. We check
it for every table view of the reconstructed datasets, using each view's
own body as the query — the rewriting engine must (a) recover the table
itself and (b) produce only sound rewritings.
"""

import itertools

import pytest

from repro.datasets.registry import load_dataset
from repro.queries.conjunctive import (
    ConjunctiveQuery,
    Variable,
    substitute_atom,
    unify_atoms,
)
from repro.queries.homomorphism import is_contained_in
from repro.queries.rewrite import LAVView, rewrite_query


def expand(rewriting: ConjunctiveQuery, views: dict[str, LAVView]) -> ConjunctiveQuery:
    """Replace every table atom by its (renamed-apart) view body."""
    atoms = []
    for occurrence, atom in enumerate(rewriting.body):
        view = views[atom.bare_predicate]
        renaming = {
            variable: Variable(f"{variable.name}__e{occurrence}")
            for body_atom in view.body
            for variable in body_atom.variables()
        }
        # Head variables of the view become the atom's argument terms;
        # existential view variables stay renamed-apart.
        substitution = dict(renaming)
        for head_variable, term in zip(view.head, atom.terms):
            substitution[head_variable] = term
        for body_atom in view.body:
            atoms.append(substitute_atom(body_atom, substitution))
    return ConjunctiveQuery(rewriting.head_terms, atoms, rewriting.name)


@pytest.mark.parametrize("dataset", ["Hotel", "3Sdb"])
@pytest.mark.parametrize("side", ["source", "target"])
def test_view_bodies_rewrite_soundly(dataset, side):
    pair = load_dataset(dataset)
    semantics = getattr(pair, side)
    views = {view.name: view for view in semantics.views()}
    for view in semantics.views():
        query = ConjunctiveQuery(view.head, view.body, "q")
        rewritings = rewrite_query(query, semantics.views())
        assert rewritings, view.name
        for rewriting in rewritings:
            expansion = expand(rewriting, views)
            assert is_contained_in(expansion, query), (
                f"unsound rewriting for {view.name}: {rewriting}"
            )


@pytest.mark.parametrize("dataset", ["Hotel", "3Sdb"])
def test_view_query_recovers_identity(dataset):
    """Rewriting a view's own body must admit the one-atom table plan."""
    from repro.queries.normalize import KeyPositions

    pair = load_dataset(dataset)
    semantics = pair.source
    keys = KeyPositions(semantics.schema)
    for view in semantics.views():
        query = ConjunctiveQuery(view.head, view.body, "q")
        rewritings = rewrite_query(
            query,
            semantics.views(),
            required_tables={view.name},
            key_positions=keys,
        )
        assert any(
            len(r.body) == 1 and r.body[0].bare_predicate == view.name
            for r in rewritings
        ), view.name
