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


class UniformBuffer:
    """Block-buffered uniform draws from a numpy Generator.

    Sequential samplers (thinning) consume uniforms one at a time; per-call
    Generator overhead dominates there, so draws are refilled in blocks while
    keeping the stream a pure function of the seed.
    """

    def __init__(self, rng: np.random.Generator, block: int = 1 << 14):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._pos = 0

    def next(self) -> float:
        if self._pos == self._block:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u
