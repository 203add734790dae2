"""Small shared utilities: prefix sums, validation, RNG/env helpers."""

from .env import env_choice, env_path, normalize_choice
from .prefix_sum import exclusive_prefix_sum
from .validation import check_positive, check_square, require
from .rng import as_generator, spawn_generator

__all__ = [
    "exclusive_prefix_sum",
    "check_positive",
    "check_square",
    "require",
    "as_generator",
    "spawn_generator",
    "env_choice",
    "env_path",
    "normalize_choice",
]
