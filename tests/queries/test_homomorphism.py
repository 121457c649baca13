"""Unit tests for containment, equivalence, minimization, and pruning."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queries import (
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Variable,
    are_equivalent,
    containment_mapping,
    db_atom,
    is_contained_in,
    keep_maximal,
    minimize,
)
from repro.queries.homomorphism import _FactIndex, _homomorphisms

x, y, z, u, v = (Variable(n) for n in "xyzuv")


def q(head, *atoms):
    return ConjunctiveQuery(head, atoms)


class TestContainment:
    def test_extra_atoms_mean_contained(self):
        specific = q([x], db_atom("r", x, y), db_atom("s", y))
        general = q([x], db_atom("r", x, y))
        assert is_contained_in(specific, general)
        assert not is_contained_in(general, specific)

    def test_renamed_copies_equivalent(self):
        q1 = q([x], db_atom("r", x, y))
        q2 = q([u], db_atom("r", u, v))
        assert are_equivalent(q1, q2)

    def test_head_must_map(self):
        q1 = q([x], db_atom("r", x, y))
        q2 = q([y], db_atom("r", x, y))
        assert not are_equivalent(q1, q2)

    def test_constants_must_match(self):
        with_const = q([x], db_atom("r", x, Constant(1)))
        without = q([x], db_atom("r", x, y))
        assert is_contained_in(with_const, without)
        assert not is_contained_in(without, with_const)

    def test_self_join_containment(self):
        # Classic: r(x,y),r(y,z) maps into r(x,x) by collapsing variables.
        path = q([x], db_atom("r", x, y), db_atom("r", y, z))
        loop = q([x], db_atom("r", x, x))
        assert is_contained_in(loop, path)
        assert not is_contained_in(path, loop)

    def test_containment_mapping_returned(self):
        outer = q([x], db_atom("r", x, y))
        inner = q([u], db_atom("r", u, v), db_atom("s", v))
        mapping = containment_mapping(outer, inner)
        assert mapping[x] == u

    def test_different_head_arity_not_contained(self):
        q1 = q([x], db_atom("r", x, y))
        q2 = q([x, y], db_atom("r", x, y))
        assert containment_mapping(q1, q2) is None


class TestMinimize:
    def test_redundant_atom_removed(self):
        query = q([x], db_atom("r", x, y), db_atom("r", x, z))
        minimal = minimize(query)
        assert len(minimal.body) == 1
        assert are_equivalent(minimal, query)

    def test_non_redundant_preserved(self):
        query = q([x], db_atom("r", x, y), db_atom("s", y))
        assert minimize(query) == query

    def test_head_atoms_never_dropped_to_unsafety(self):
        query = q([x, y], db_atom("r", x, y), db_atom("r", x, z))
        minimal = minimize(query)
        assert set(minimal.head_variables()) <= set(minimal.body_variables())
        assert are_equivalent(minimal, query)


class TestKeepMaximal:
    def test_example_3_4_pruning(self):
        """q'₂ ⊆ q'₃ so q'₂ is eliminated (paper's Example 3.4)."""
        v1, v2, yy = Variable("v1"), Variable("v2"), Variable("y")
        q2 = q(
            [v1, v2],
            db_atom("person", v1),
            db_atom("writes", v1, yy),
            db_atom("book", yy),
            db_atom("soldAt", yy, v2),
            db_atom("bookstore", v2),
        )
        q3 = q(
            [v1, v2],
            db_atom("person", v1),
            db_atom("writes", v1, yy),
            db_atom("soldAt", yy, v2),
            db_atom("bookstore", v2),
        )
        survivors = keep_maximal([q2, q3])
        assert survivors == [q3]

    def test_incomparable_queries_both_kept(self):
        q1 = q([x], db_atom("r", x, y))
        q2 = q([x], db_atom("s", x, y))
        assert len(keep_maximal([q1, q2])) == 2

    def test_equivalent_queries_keep_first(self):
        q1 = q([x], db_atom("r", x, y))
        q2 = q([u], db_atom("r", u, v))
        assert keep_maximal([q1, q2]) == [q1]

    def test_empty_input(self):
        assert keep_maximal([]) == []


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

predicates = st.sampled_from(["r", "s", "t"])
variables = st.sampled_from([x, y, z, u, v])


@st.composite
def random_query(draw):
    n_atoms = draw(st.integers(min_value=1, max_value=4))
    atoms = [
        db_atom(draw(predicates), draw(variables), draw(variables))
        for _ in range(n_atoms)
    ]
    body_vars = sorted({vv for a in atoms for vv in a.variables()})
    head = [body_vars[0]]
    return ConjunctiveQuery(head, atoms)


@settings(max_examples=60, deadline=None)
@given(query=random_query())
def test_containment_reflexive(query):
    assert is_contained_in(query, query)


@settings(max_examples=60, deadline=None)
@given(query=random_query())
def test_minimize_is_equivalent_and_no_larger(query):
    minimal = minimize(query)
    assert are_equivalent(minimal, query)
    assert len(minimal.body) <= len(query.body)


@settings(max_examples=40, deadline=None)
@given(q1=random_query(), q2=random_query(), q3=random_query())
def test_containment_transitive(q1, q2, q3):
    if is_contained_in(q1, q2) and is_contained_in(q2, q3):
        assert is_contained_in(q1, q3)


@settings(max_examples=40, deadline=None)
@given(queries=st.lists(random_query(), max_size=4))
def test_keep_maximal_survivors_dominate(queries):
    survivors = keep_maximal(queries)
    for query in queries:
        assert any(is_contained_in(query, survivor) for survivor in survivors)


def pairwise_keep_maximal(queries):
    """The pairwise reference: one memoized check per ordered pair."""
    contained = {}

    def check(first, second):
        key = (first, second)
        if key not in contained:
            contained[key] = is_contained_in(queries[first], queries[second])
        return contained[key]

    survivors = []
    for index, query in enumerate(queries):
        dominated = False
        for other_index in range(len(queries)):
            if index == other_index:
                continue
            if check(index, other_index):
                if check(other_index, index):
                    if other_index < index:
                        dominated = True
                        break
                else:
                    dominated = True
                    break
        if not dominated:
            survivors.append(query)
    return survivors


def with_redundant_atom(query, index):
    """``query`` plus a copy of one body atom over fresh existentials.

    The copy maps back onto its original, so the result is equivalent
    to ``query`` but not minimal.
    """
    atom = query.body[index % len(query.body)]
    head = set(query.head_variables())
    fresh = {
        variable: Variable(f"{variable.name}_r")
        for variable in atom.variables()
        if variable not in head
    }
    copy = db_atom(
        atom.bare_predicate, *(fresh.get(t, t) for t in atom.terms)
    )
    return ConjunctiveQuery(query.head_terms, query.body + (copy,))


@st.composite
def query_lists_with_variants(draw):
    """Random queries plus duplicates, renamings and redundant variants."""
    pool = draw(st.lists(random_query(), min_size=1, max_size=5))
    queries = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        base = draw(st.sampled_from(pool))
        kind = draw(
            st.sampled_from(["same", "copy", "renamed", "redundant"])
        )
        if kind == "same":
            queries.append(base)
        elif kind == "copy":
            queries.append(ConjunctiveQuery(base.head_terms, base.body))
        elif kind == "renamed":
            queries.append(base.rename_apart("_n"))
        else:
            queries.append(
                with_redundant_atom(base, draw(st.integers(0, 3)))
            )
    return queries


@settings(max_examples=150, deadline=None)
@given(queries=query_lists_with_variants())
def test_keep_maximal_matches_pairwise_reference(queries):
    survivors = keep_maximal(queries)
    reference = pairwise_keep_maximal(queries)
    assert [id(query) for query in survivors] == [
        id(query) for query in reference
    ]


def order_key(query):
    """``rewrite_query``'s order: larger bodies first, then text."""
    return (-len(query.body), str(query))


def size_key(query):
    """A coarse order: many queries tie, equivalent ones need not."""
    return -len(query.body)


def streamed_keep_maximal(arrivals, key=order_key):
    """Admit each query on its own, as ``rewrite_query`` does, then sort."""
    kept = []
    for query in arrivals:
        keep_maximal([query], kept, key=key)
    kept.sort(key=key)
    return kept


@settings(max_examples=150, deadline=None)
@given(data=st.data(), queries=query_lists_with_variants())
def test_streamed_keep_maximal_matches_sorted_batch(data, queries):
    arrivals = data.draw(st.permutations(queries), label="arrivals")
    key = data.draw(st.sampled_from([order_key, size_key]), label="key")
    survivors = streamed_keep_maximal(arrivals, key)
    # Among equal keys the first to arrive wins, so the reference sorts
    # the arrival order (``sorted`` is stable).
    ordered = sorted(arrivals, key=key)
    for reference in (keep_maximal(ordered), pairwise_keep_maximal(ordered)):
        assert [id(query) for query in survivors] == [
            id(query) for query in reference
        ]


class TestStreamedKeepMaximal:
    def test_equivalent_query_with_smaller_key_replaces_its_twin(self):
        twin = q([x], db_atom("r", x, y))
        smaller = q([u], db_atom("r", u, v))
        other = q([x], db_atom("s", x, y))
        assert order_key(smaller) < order_key(twin)
        survivors = streamed_keep_maximal([twin, other, smaller])
        assert [id(query) for query in survivors] == [id(smaller), id(other)]
        assert survivors == keep_maximal(
            sorted([twin, other, smaller], key=order_key)
        )

    def test_equal_keys_keep_the_first_arrival(self):
        first = q([x], db_atom("r", x, y))
        copy = q([x], db_atom("r", x, y))
        survivors = streamed_keep_maximal([first, copy])
        assert [id(query) for query in survivors] == [id(first)]

    def test_a_replacement_counts_as_the_newest_arrival(self):
        """Equal keys sort in arrival order, and a query that takes an
        equivalent twin's place arrived after everything kept."""
        general = q([x], db_atom("r", x, y))
        other = q([x], db_atom("s", x, y), db_atom("s", x, z))
        redundant = q([x], db_atom("r", x, y), db_atom("r", x, z))
        arrivals = [general, other, redundant]
        survivors = streamed_keep_maximal(arrivals, size_key)
        assert [id(query) for query in survivors] == [id(other), id(redundant)]
        reference = keep_maximal(sorted(arrivals, key=size_key))
        assert [id(query) for query in reference] == [
            id(query) for query in survivors
        ]

    def test_kept_antichain_is_updated_in_place(self):
        general = q([x], db_atom("r", x, y))
        specific = q([x], db_atom("r", x, y), db_atom("s", y))
        kept = keep_maximal([specific])
        assert keep_maximal([general], kept) is kept
        assert kept == [general]


def copying_match_term(pattern, target, mapping):
    """Reference one-way matcher: a new dict for every new binding."""
    if isinstance(pattern, Variable):
        bound = mapping.get(pattern)
        if bound is None:
            return {**mapping, pattern: target}
        return mapping if bound == target else None
    if isinstance(pattern, Constant):
        return mapping if pattern == target else None
    if (
        not isinstance(target, SkolemTerm)
        or pattern.function != target.function
        or len(pattern.arguments) != len(target.arguments)
    ):
        return None
    for p_arg, t_arg in zip(pattern.arguments, target.arguments):
        mapping = copying_match_term(p_arg, t_arg, mapping)
        if mapping is None:
            return None
    return mapping


def copying_match_atom(pattern, target, mapping):
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    for p_term, t_term in zip(pattern.terms, target.terms):
        mapping = copying_match_term(p_term, t_term, mapping)
        if mapping is None:
            return None
    return mapping


def full_scan_homomorphisms(atoms, facts, mapping):
    """Reference: every pattern atom tries every fact, in fact order."""
    if not atoms:
        yield mapping
        return
    for fact in facts:
        extended = copying_match_atom(atoms[0], fact, mapping)
        if extended is not None:
            yield from full_scan_homomorphisms(atoms[1:], facts, extended)


#: Two tables, ``r`` binary and ``s`` unary, over three values: small
#: enough that several facts agree on a value, so an index lookup
#: returns more than one of them.
ARITY = {"r": 2, "s": 1}


def atoms_over(terms):
    return st.sampled_from(sorted(ARITY)).flatmap(
        lambda predicate: st.lists(
            terms, min_size=ARITY[predicate], max_size=ARITY[predicate]
        ).map(lambda chosen: db_atom(predicate, *chosen))
    )


values = st.integers(0, 2).map(Constant)
variables = st.sampled_from([x, y, z])


def skolem(terms):
    """Skolem terms over ``terms``, as the chase writes existentials."""
    return terms.map(lambda term: SkolemTerm("f", (term,)))


ground_facts = st.lists(
    atoms_over(st.one_of(values, skolem(values))), max_size=20
)
premises = st.lists(
    atoms_over(st.one_of(variables, values, skolem(variables))),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200)
@given(atoms=premises, facts=ground_facts)
def test_fact_index_keeps_the_full_scan_order(atoms, facts):
    """The value index only skips facts that cannot match, so the chase
    fires in the same order as with a scan of every fact."""
    indexed = list(_homomorphisms(tuple(atoms), _FactIndex(facts), {}))
    assert indexed == list(full_scan_homomorphisms(atoms, facts, {}))


def test_each_solution_is_its_own_copy():
    """The search binds in one dict; a caller keeps every solution, and
    its own starting mapping, unchanged."""
    one, two, three = Constant(1), Constant(2), Constant(3)
    facts = _FactIndex([db_atom("r", one, two), db_atom("r", one, three)])
    start = {x: one}
    solutions = list(_homomorphisms((db_atom("r", x, y),), facts, start))
    assert solutions == [{x: one, y: two}, {x: one, y: three}]
    assert start == {x: one}
