"""Deterministic RNG derivation for simulations and parallel experiment cells."""
from __future__ import annotations

import numpy as np


def derived_seed(base_seed: int, *coords: int) -> int:
    """Stable 32-bit task seed from a base seed and task coordinates: distinct
    coordinate tuples give independent seeds, the same tuple always the same."""
    return int(np.random.SeedSequence([int(base_seed), *map(int, coords)]).generate_state(1)[0])


def as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if hasattr(seed, "random"):  # Generator or any stand-in exposing .random()
        return seed
    return np.random.default_rng(int(seed))
