"""Pinned output of ``compose`` on a seeded random two-hop corpus.

Each pair composes 1–3 random first-hop candidates (source tables
``a``/``b``/``c`` into middle tables ``m``/``n``/``k``) with 1–2 random
second-hop candidates (middle into ``q``/``r``/``s``). Bodies have 1–3
atoms with self-joins, target bodies carry existentials, and heads may
repeat a variable. The digest covers ``dump_mapping_set`` of the raw
(``prune=False``) and the pruned composition of every pair, in order.

The digests were recorded from the earlier composition code, which
unfolded premises with an enumerator of its own. In 106 of the 900
pairs some unfolding binds a source variable to a Skolem term; that
code crashed on those, so they were recorded with such unfoldings left
out, which is what ``compose`` does now (no source instance holds
nulls).

A second corpus draws names that collide with the renaming suffixes
(``x``, ``x_0``, ``x_1``; source and target pools overlap). Its digest
was recorded from this code after checking that the earlier code, given
a one-step ``align_queries``, printed the same bytes on each of the 781
of its 900 pairs that it did not crash on.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.correspondences import Correspondence
from repro.mappings import MappingCandidate, compose
from repro.mappings.serialize import dump_mapping_set
from repro.queries.parser import parse_query

SOURCE = {"a": 1, "b": 2, "c": 2}
MIDDLE = {"m": 2, "n": 2, "k": 1}
TARGET = {"q": 1, "r": 2, "s": 2}
#: Source- and target-side variables are drawn from disjoint pools.
SOURCE_VARS = ("x", "y", "z", "w")
TARGET_VARS = ("u", "v", "t", "g")
#: Names of the renaming-suffix shape, shared between the sides.
SUFFIXED_SOURCE_VARS = ("x", "x_0", "x_1", "y_2")
SUFFIXED_TARGET_VARS = ("u", "u_0", "x", "x_0")
FIRST_COVERED = (
    "a.c1 <-> m.c1",
    "b.c2 <-> m.c2",
    "c.c1 <-> n.c1",
    "b.c1 <-> k.c1",
)
SECOND_COVERED = (
    "m.c1 <-> q.c1",
    "m.c2 <-> r.c2",
    "n.c1 <-> s.c1",
    "k.c1 <-> r.c1",
)
PAIRS_PER_SEED = 300

DIGESTS = {
    1: "3bab448080ee61a4742ce584e59f428e6629e33e603d86b9ac6374362f43cf16",
    2: "3e1d801154e418194edb260a436d3d168daf38cb904958c3990f457275d00a6e",
    3: "c2fbc09167518f667fc38a4584918450e15e851990542fb1375313b3e2fb21bd",
}
SUFFIXED_DIGESTS = {
    1: "70de3a525e79837c70d36452444259d7df88cd57b90ef6c6a2c90232ae3b7c93",
    2: "3ad834fc8e28a80bd121f86f2df0f180e84325163bab4b02d844bd4c02a302ff",
    3: "1f1d43ea214a00c4866fc2e760a5aa755a1bc3a320637639df247cf49d302b52",
}


def _query(rng, tables, pool, atoms, head):
    body = []
    for _ in range(atoms):
        table = rng.choice(sorted(tables))
        body.append(
            (table, [rng.choice(pool) for _ in range(tables[table])])
        )
    variables = sorted({v for _, terms in body for v in terms})
    head_terms = [rng.choice(variables) for _ in range(head)]
    text = ", ".join(f"{t}({', '.join(terms)})" for t, terms in body)
    return f"ans({', '.join(head_terms)}) :- {text}"


def _candidate(rng, left, right, covered, pools):
    head = rng.randint(1, 2)
    return MappingCandidate(
        parse_query(_query(rng, left, pools[0], rng.randint(1, 3), head)),
        parse_query(_query(rng, right, pools[1], rng.randint(1, 2), head)),
        tuple(
            Correspondence.parse(c)
            for c in rng.sample(covered, rng.randint(0, 2))
        ),
    )


def random_pairs(seed, count, pools=(SOURCE_VARS, TARGET_VARS)):
    rng = random.Random(seed)
    for _ in range(count):
        first = [
            _candidate(rng, SOURCE, MIDDLE, FIRST_COVERED, pools)
            for _ in range(rng.randint(1, 3))
        ]
        second = [
            _candidate(rng, MIDDLE, TARGET, SECOND_COVERED, pools)
            for _ in range(rng.randint(1, 2))
        ]
        yield first, second


def corpus_digest(seed, pools):
    digest = hashlib.sha256()
    for first, second in random_pairs(seed, PAIRS_PER_SEED, pools):
        raw = dump_mapping_set(compose(first, second, prune=False))
        pruned = dump_mapping_set(compose(first, second))
        digest.update(f"{raw}\n{pruned}".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_compose_output_is_pinned(seed):
    assert corpus_digest(seed, (SOURCE_VARS, TARGET_VARS)) == DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SUFFIXED_DIGESTS))
def test_suffixed_names_output_is_pinned(seed):
    pools = (SUFFIXED_SOURCE_VARS, SUFFIXED_TARGET_VARS)
    assert corpus_digest(seed, pools) == SUFFIXED_DIGESTS[seed]
