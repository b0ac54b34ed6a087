"""Ingestion of raw timestamp files into canonical event sequences."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError
from .events import EventSequence


def ingest_timestamps(path, time_unit_scale: float = 1.0) -> EventSequence:
    """Read one timestamp per row (first CSV field), normalize to start at 0.

    Accepts Unix seconds or plain reals, with an optional single header row.
    Output is sorted, exact duplicates are dropped (first occurrence kept),
    times are shifted so the first event sits at 0 and scaled by
    time_unit_scale; the horizon is the last (scaled) timestamp.
    """
    if not 0 < time_unit_scale < math.inf:
        raise ConfigError(f"time_unit_scale must be positive and finite, got {time_unit_scale}")
    values: list[float] = []
    bad: list[int] = []
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            field = line.split(",", 1)[0].strip()
            if not field:
                continue
            try:
                values.append(float(field))
            except ValueError:
                if lineno == 1 and not values:
                    continue  # header row
                bad.append(lineno)
    if bad:
        shown = ", ".join(map(str, bad[:10]))
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise ValueError(f"{path}: unparsable timestamp rows at lines {shown}{more}")
    if not values:
        raise ValueError(f"{path}: no timestamps found")

    raw = np.asarray(values, dtype=np.float64)
    if np.any(np.diff(raw) < 0):
        warnings.warn(f"{path}: timestamps were not sorted; sorting", stacklevel=2)
        raw = np.sort(raw, kind="stable")
    keep = np.ones(raw.size, dtype=bool)
    keep[1:] = np.diff(raw) > 0
    n_dup = int(raw.size - keep.sum())
    if n_dup:
        warnings.warn(f"{path}: dropped {n_dup} duplicate timestamp(s)", stacklevel=2)
        raw = raw[keep]
    scaled = (raw - raw[0]) * time_unit_scale
    return EventSequence(scaled, horizon=float(scaled[-1]))
