"""Pinned output of ``exchange`` run twice over the compose digest corpus.

Each pair of ``random_pairs`` (see ``test_compose_digests.py``) is
executed as a schema-evolution chain: a seeded source instance over
``a``/``b``/``c`` is exchanged with the first-hop candidates into the
middle schema, and the middle instance, labeled nulls included, with
the second-hop candidates into the target schema. The digest covers
every row of both instances, labels of the labeled nulls included, for
both name pools.

The digests were recorded from the earlier exchange, which bound each
premise with the join evaluator of ``repro.queries.datalog``; exchange
over the shared chase round gives the same bytes.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.mappings import MappingSet, exchange
from repro.relational import Instance, RelationalSchema, Table
from test_compose_digests import (
    MIDDLE,
    PAIRS_PER_SEED,
    SOURCE,
    SOURCE_VARS,
    SUFFIXED_SOURCE_VARS,
    SUFFIXED_TARGET_VARS,
    TARGET,
    TARGET_VARS,
    random_pairs,
)

#: Few values and few rows per table, so premises join and repeat.
VALUES = (1, 2, 3)
ROWS_PER_TABLE = 4

DIGESTS = {
    1: "79d2eb941db2a4da5548af5685cbb5456e0d222e8883c6cd0ad16d5186900b6a",
    2: "569c3f826bf0d7998c54ba7d3437af65cb70644cfd7fa48cab128c57debe0f6f",
    3: "4551873dfa0c14536f637ffd16ccfff452f3f5af0bcd359ff6b955767082bcde",
}
SUFFIXED_DIGESTS = {
    1: "9166d71be9c38259cbb7be7349f47f9177d828472f129a1cc4f2f2d47ea26b93",
    2: "b727c400d9991ad1f450fc8896e0c4d10358b426481b95e1084aba37b4766513",
    3: "aabd389335298aff88ca745e6b0ec9a3ae40fabc4bb44581fef4c840a201c7e2",
}


def _schema(name, tables):
    return RelationalSchema(
        name,
        [
            Table(table, [f"c{i}" for i in range(1, arity + 1)])
            for table, arity in tables.items()
        ],
    )


def _source_instance(rng, schema):
    instance = Instance(schema)
    for table, arity in SOURCE.items():
        instance.add_all(
            table,
            [
                tuple(rng.choice(VALUES) for _ in range(arity))
                for _ in range(ROWS_PER_TABLE)
            ],
        )
    return instance


def exchange_digest(seed, pools):
    source_schema = _schema("s", SOURCE)
    middle_schema = _schema("m", MIDDLE)
    target_schema = _schema("t", TARGET)
    rng = random.Random(f"exchange-{seed}")
    digest = hashlib.sha256()
    for first, second in random_pairs(seed, PAIRS_PER_SEED, pools):
        source = _source_instance(rng, source_schema)
        middle = exchange(
            MappingSet.of(first).to_tgds("M"), source, middle_schema
        )
        target = exchange(
            MappingSet.of(second).to_tgds("R"), middle, target_schema
        )
        for instance in (middle, target):
            for table in sorted(instance.schema.tables):
                rows = sorted(repr(row) for row in instance.rows(table))
                digest.update(f"{table}:{rows}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_exchange_output_is_pinned(seed):
    assert exchange_digest(seed, (SOURCE_VARS, TARGET_VARS)) == DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SUFFIXED_DIGESTS))
def test_suffixed_names_exchange_is_pinned(seed):
    pools = (SUFFIXED_SOURCE_VARS, SUFFIXED_TARGET_VARS)
    assert exchange_digest(seed, pools) == SUFFIXED_DIGESTS[seed]
