"""Benchmark datasets: paper worked examples and the 7 evaluation pairs."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.datasets.instances": ("generate_instance", "referential_order"),
        "repro.datasets.registry": (
            "DatasetPair",
            "MappingCase",
            "dataset_names",
            "load_all_datasets",
            "load_dataset",
        ),
        "repro.datasets.paper_examples": (
            "ExampleScenario",
            "bookstore_example",
            "employee_example",
            "partof_example",
            "project_example",
        ),
    },
)
