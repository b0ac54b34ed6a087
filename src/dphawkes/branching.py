"""Borel progeny law, in-window tree sizes, and the discrepancy bound."""
from __future__ import annotations

import math

import numpy as np

from .errors import PreconditionViolated
from .events import EventSequence
from .hawkes import ParamBounds
from .privacy import c1_constant
from .tables import read_table, write_table

TREE_CSV_HEADER = ("tree_size", "count")


def borel_pmf(nu: float, j: int) -> float:
    """P(total progeny = j) for Poisson(nu) offspring: e^{-nu j} (nu j)^{j-1} / j!.

    Evaluated in log space (ln-Gamma) so j up to 1e4 does not overflow.
    """
    if not 0 <= nu < 1:
        raise ValueError("nu must lie in [0, 1)")
    if j < 1:
        raise ValueError("j must be at least 1")
    if j == 1:
        return math.exp(-nu)
    if nu == 0.0:
        return 0.0
    log_p = -nu * j + (j - 1) * math.log(nu * j) - math.lgamma(j + 1)
    return math.exp(log_p)


def tree_sizes(events: EventSequence) -> np.ndarray:
    """The int64 in-window size of each tree, in tree_id order (none if empty)."""
    if len(events) == 0:
        return np.zeros(0, dtype=np.int64)
    if not events.labeled:
        raise ValueError("sequence carries no tree labels")
    return np.unique(events.tree_id, return_counts=True)[1]


def discrepancy_bound(bounds: ParamBounds, gamma: float, b: int, delta: float) -> float:
    """High-probability cap B^{3/2} sqrt(delta) C1 on the summed deviation of B bins.

    Requires delta strictly above 10*alpha_upper^2 / (2*(1-alpha_upper)).
    """
    if b < 1:
        raise ValueError("b must be a positive integer")
    threshold = 10.0 * bounds.alpha_upper**2 / (2.0 * (1.0 - bounds.alpha_upper))
    if not delta > threshold:
        raise PreconditionViolated(
            f"delta {delta:.6g} must exceed 10*alpha_upper^2/(2*(1-alpha_upper)) = {threshold:.6g}")
    return b**1.5 * math.sqrt(delta) * c1_constant(bounds, gamma)


def write_tree_csv(sizes: np.ndarray, path) -> None:
    """Histogram export of tree_sizes' array: one row per observed size."""
    sizes, counts = np.unique(sizes, return_counts=True)
    write_table(path, TREE_CSV_HEADER, zip(sizes, counts))


def read_tree_csv(path) -> tuple[np.ndarray, np.ndarray]:
    rows = read_table(path, TREE_CSV_HEADER)
    return (np.asarray([int(s) for s, _ in rows], dtype=np.int64),
            np.asarray([int(c) for _, c in rows], dtype=np.int64))
