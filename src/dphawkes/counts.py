"""Binned count series and its sample statistics."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .events import EventSequence, owned_array

MAX_BINS = 10**8  # 800 MB of int64 counts
BIN_BLOCK = 1 << 16  # timestamps binned per slice, bounding the temporaries


@dataclass(frozen=True)
class CountSeries:
    """Counts per consecutive bin of width delta; the horizon K * delta is derived."""

    counts: np.ndarray
    delta: float

    def __post_init__(self):
        c = owned_array(self.counts, np.int64)
        object.__setattr__(self, "counts", c)
        if c.size < 2:
            raise ValueError("need at least 2 bins")
        if np.any(c < 0):
            raise ValueError("counts must be nonnegative")
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    @property
    def k(self) -> int:
        return int(self.counts.size)

    @property
    def horizon(self) -> float:
        return self.k * self.delta

    @cached_property
    def stats(self) -> SampleStats:
        """The sample statistics, computed on first use and kept (counts are read-only)."""
        return SampleStats(float(self.counts.mean()), float(self.counts.var(ddof=1)), self.k)


@dataclass(frozen=True)
class SampleStats:
    """Sample mean and unbiased (K-1 divisor) sample variance of the bins."""

    eta_hat: float
    sigma_sq_hat: float
    k: int


def bin_events(events: EventSequence, delta: float) -> CountSeries:
    """Left-closed right-open bins; the trailing partial bin is discarded."""
    return bin_times((events.timestamps,), events.horizon, delta)


def bin_count(horizon: float, delta: float) -> int:
    """The K = floor(horizon / delta + 1e-9) whole bins, refused outside [2, MAX_BINS]."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    q = horizon / delta + 1e-9
    k = math.floor(q) if math.isfinite(q) else q  # floor(inf) raises OverflowError
    if not 2 <= k <= MAX_BINS:
        raise ValueError(f"horizon {horizon:g} yields {k:.3g} bin(s) of width {delta:g}; "
                         f"need 2 to {MAX_BINS:.0e}")
    return k


def bin_times(parts: Iterable[np.ndarray], horizon: float, delta: float) -> CountSeries:
    """The bins of bin_events over timestamps given in parts, in any order.

    Times outside [0, K * delta) are not counted. The bin rule is checked
    before the first part is read, so parts may be a lazy generator. Each part
    is dropped here before the next is pulled.

    A time's bin is np.floor_divide(t, delta), bit for bit: a correctly
    rounded t / delta can cross an integer only by rounding up onto it, so the
    truncated quotient is recomputed by floor_divide only where it is integral.
    """
    k = bin_count(horizon, delta)
    end = k * delta
    counts = np.zeros(k, dtype=np.int64)
    for part in parts:
        for lo in range(0, part.size, BIN_BLOCK):
            _add_bins(counts, part[lo:lo + BIN_BLOCK], delta, end)
        del part  # before the next one is drawn
    return CountSeries(counts=counts, delta=delta)


def _add_bins(counts: np.ndarray, ts: np.ndarray, delta: float, end: float) -> None:
    """Add the bins of the times ts to counts; its temporaries die on return."""
    ts = ts[(ts >= 0.0) & (ts < end)]
    q = ts / delta
    idx = q.astype(np.int64)
    edge = idx == q
    idx[edge] = np.floor_divide(ts[edge], delta)
    first = idx.min(initial=counts.size)  # count over the slice's own bins, not all k
    idx -= first
    c = np.bincount(idx)
    counts[first:first + c.size] += c


def sample_stats(series: CountSeries) -> SampleStats:
    return series.stats

