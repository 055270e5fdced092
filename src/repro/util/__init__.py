"""Shared utilities: RNG discipline, validation, statistics, result I/O,
minimum-cost assignment.

These helpers deliberately contain no domain logic; every other
subpackage builds on them.
"""

from repro.util.assignment import assignment_columns
from repro.util.rng import RandomState, as_generator, spawn_generators
from repro.util.validation import (
    check_finite_array,
    check_in_range,
    check_positive,
    check_probability,
    check_shape,
)
from repro.util.stats import (
    SummaryStats,
    empirical_cdf,
    mean_confidence_interval,
    summarize,
)
from repro.util.serialization import results_to_json, save_results_json

__all__ = [
    "assignment_columns",
    "RandomState",
    "as_generator",
    "spawn_generators",
    "check_finite_array",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape",
    "SummaryStats",
    "empirical_cdf",
    "mean_confidence_interval",
    "summarize",
    "results_to_json",
    "save_results_json",
]
