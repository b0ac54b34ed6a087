"""Deterministic RNG derivation for simulations and parallel experiment cells."""
from __future__ import annotations

import numpy as np


def _task_key(base_seed: int, coords) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(base_seed), *map(int, coords)])


def task_rng(base_seed: int, *coords: int) -> np.random.Generator:
    """Generator for one task, derived from a base seed and task coordinates.

    Distinct coordinate tuples yield independent streams; the same tuple always
    yields the same stream, regardless of execution order.
    """
    return np.random.default_rng(_task_key(base_seed, coords))


def derived_seed(base_seed: int, *coords: int) -> int:
    """Stable 32-bit task seed from the same key as task_rng."""
    return int(_task_key(base_seed, coords).generate_state(1)[0])


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if hasattr(seed, "random"):  # Generator or any stand-in exposing .random()
        return seed
    return np.random.default_rng(int(seed))
