"""Property-based tests: er2rel output is always well-formed.

Random small conceptual models go in; the forward-engineered schema and
its table semantics must satisfy the design invariants regardless of the
model's shape.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cm import ConceptualModel
from repro.queries.rewrite import inverse_rules
from repro.semantics import design_schema
from repro.semantics.encoder import effective_key

CLASS_POOL = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"]
CARDS = ["0..1", "1..1", "0..*", "1..*"]


@st.composite
def conceptual_models(draw):
    cm = ConceptualModel("random")
    n_classes = draw(st.integers(min_value=2, max_value=5))
    names = CLASS_POOL[:n_classes]
    for index, name in enumerate(names):
        keyed = draw(st.booleans()) or index == 0
        attributes = [f"{name.lower()}_id", f"{name.lower()}_val"]
        cm.add_class(
            name,
            attributes=attributes,
            key=[attributes[0]] if keyed else [],
        )
    n_rels = draw(st.integers(min_value=0, max_value=4))
    for rel_index in range(n_rels):
        domain = draw(st.sampled_from(names))
        range_ = draw(st.sampled_from(names))
        cm.add_relationship(
            f"rel{rel_index}",
            domain,
            range_,
            to_card=draw(st.sampled_from(CARDS)),
            from_card=draw(st.sampled_from(CARDS)),
        )
    # Optionally one ISA link between distinct classes (no cycles with
    # a single link).
    if n_classes >= 2 and draw(st.booleans()):
        sub, sup = names[1], names[0]
        if not cm.cm_class(sub).key or True:
            cm.add_isa(sub, sup)
    return cm


@settings(max_examples=60, deadline=None)
@given(model=conceptual_models())
def test_design_produces_valid_schema_and_semantics(model):
    result = design_schema(model, "s")
    schema = result.schema
    semantics = result.semantics  # construction itself validates trees
    for table in schema:
        assert table.arity >= 1
        assert table.primary_key  # er2rel only emits keyed tables
    # Every RIC points at existing tables/columns (add_ric validated),
    # and parent columns are the parent's primary key.
    for ric in schema.rics:
        parent = schema.table(ric.parent_table)
        assert tuple(ric.parent_columns) == parent.primary_key


@settings(max_examples=60, deadline=None)
@given(model=conceptual_models())
def test_views_match_table_arity(model):
    result = design_schema(model, "s")
    for view in result.semantics.views():
        table = result.schema.table(view.name)
        assert len(view.head) == table.arity
        # Inverse rules derive without error and stay within the view.
        for rule in inverse_rules(view):
            assert rule.body.bare_predicate == view.name


@settings(max_examples=60, deadline=None)
@given(model=conceptual_models())
def test_tables_mentioning_covers_every_view_atom(model):
    semantics = design_schema(model, "s").semantics
    order = semantics.tables_with_semantics()
    predicates = set()
    for table in order:
        for atom in semantics.view(table).body:
            predicates.add(atom.predicate)
            assert table in semantics.tables_mentioning(atom.predicate)
    for predicate in predicates:
        tables = semantics.tables_mentioning(predicate)
        assert list(tables) == [name for name in order if name in tables]


@settings(max_examples=60, deadline=None)
@given(model=conceptual_models())
def test_stree_columns_are_table_columns(model):
    result = design_schema(model, "s")
    for table_name in result.semantics.tables_with_semantics():
        table = result.schema.table(table_name)
        tree = result.semantics.tree(table_name)
        assert set(tree.columns) <= set(table.columns)
        # Key columns are always mapped.
        for key_column in table.primary_key:
            assert key_column in tree.columns


@settings(max_examples=60, deadline=None)
@given(model=conceptual_models())
def test_effective_key_stability(model):
    # effective_key never raises and is idempotent per class.
    for name in model.class_names():
        first = effective_key(model, name)
        second = effective_key(model, name)
        assert first == second
