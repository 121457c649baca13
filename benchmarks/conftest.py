"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one of the paper's exhibits (Table 1,
Figure 6, Figure 7) and measures the runtime of the piece of the pipeline
it exercises. Rendered exhibits are written to ``benchmarks/results/``,
where a rerun reproduces the committed files byte for byte; timings go
only to the pytest-benchmark report and the git-ignored ``.bench_out/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.datasets.registry import dataset_names, load_dataset
from repro.evaluation.harness import run_dataset

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def dataset_pairs():
    """All seven reconstructed dataset pairs, built once."""
    return {name: load_dataset(name) for name in dataset_names()}


@pytest.fixture(scope="session")
def evaluation_results(dataset_pairs):
    """Both methods run over every benchmark case, once per session."""
    return {
        name: run_dataset(pair) for name, pair in dataset_pairs.items()
    }
