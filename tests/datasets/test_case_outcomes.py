"""Regression pins: the measured outcome of every benchmark case.

These are the numbers EXPERIMENTS.md reports. Pinning them per case
means any algorithm change that silently shifts the reproduction —
a missed composition, a new spurious candidate — fails loudly here.

Semantic recall must be 1.0 on every case (the paper's headline);
the RIC-based recall pattern encodes *which* phenomena the baseline
handles and which it provably cannot.
"""

import pytest

from repro.datasets.registry import load_dataset
from repro.evaluation.harness import RIC, SEMANTIC, run_case

#: case id → (semantic generated-count, RIC recall)
EXPECTED = {
    # DBLP
    "dblp-article-in-journal": (1, 1.0),
    "dblp-author-of-publication": (1, 1.0),
    "dblp-author-in-journal": (1, 0.0),
    "dblp-paper-at-conference": (1, 1.0),
    "dblp-book-publisher": (1, 1.0),
    "dblp-author-at-conference": (1, 0.0),
    # Mondial
    "mondial-city-in-country": (1, 1.0),
    "mondial-river-through-country": (1, 1.0),
    "mondial-language-spoken": (1, 1.0),
    "mondial-org-hq-city": (1, 1.0),
    "mondial-mountain-continent": (1, 0.0),
    # Amalgam
    "amalgam-article-basic": (1, 1.0),
    "amalgam-author-of-article": (1, 1.0),
    "amalgam-author-journal": (1, 0.0),
    "amalgam-techreport-institution": (2, 1.0),
    "amalgam-author-trivial": (1, 1.0),
    "amalgam-author-publisher": (1, 0.0),
    "amalgam-author-institution": (5, 0.0),
    # 3Sdb
    "sdb-assay-in-experiment": (1, 1.0),
    "sdb-measurement-levels": (1, 1.0),
    "sdb-sample-gene": (1, 0.0),
    # UT
    "ut-professor-teaches-course": (1, 1.0),
    "ut-course-project-of-person": (2, 0.0),
    # Hotel
    "hotel-room-of-hotel": (1, 1.0),
    "hotel-guest-stays-at-hotel": (1, 1.0),
    "hotel-rate-of-room": (1, 1.0),
    "hotel-guest-rate": (1, 0.0),
    "hotel-trivial-hotel-property": (1, 1.0),
    # Network
    "network-interface-of-device": (1, 1.0),
    "network-router-switch-merge": (1, 0.0),
    "network-device-at-site": (1, 1.0),
    "network-link-carrier": (1, 1.0),
    "network-vlan-membership": (1, 1.0),
    "network-vlan-link": (1, 0.0),
}

DATASET_OF_CASE = {
    case_id: case_id.split("-")[0] for case_id in EXPECTED
}
_DATASET_NAMES = {
    "dblp": "DBLP",
    "mondial": "Mondial",
    "amalgam": "Amalgam",
    "sdb": "3Sdb",
    "ut": "UT",
    "hotel": "Hotel",
    "network": "Network",
}


@pytest.fixture(scope="module")
def pairs():
    return {
        name: load_dataset(name) for name in set(_DATASET_NAMES.values())
    }


@pytest.mark.parametrize("case_id", sorted(EXPECTED))
def test_case_outcome(pairs, case_id):
    expected_generated, expected_ric_recall = EXPECTED[case_id]
    pair = pairs[_DATASET_NAMES[DATASET_OF_CASE[case_id]]]
    (mapping_case,) = [c for c in pair.cases if c.case_id == case_id]

    semantic = run_case(pair, mapping_case, SEMANTIC)
    assert semantic.measures.recall == 1.0, "semantic recall must hold"
    assert semantic.measures.generated == expected_generated

    ric = run_case(pair, mapping_case, RIC)
    assert ric.measures.generated >= 1
    assert ric.measures.recall == expected_ric_recall
