"""Ingestion of raw timestamp files into canonical event sequences."""
from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError
from .events import EventSequence, load_csv_rows, loadtxt_field


def ingest_timestamps(path, time_unit_scale: float = 1.0) -> EventSequence:
    """Read one timestamp per row (first CSV field), normalize to start at 0.

    Accepts Unix seconds or plain reals, with an optional single header row;
    every other non-empty line must start with a finite number (the grammar
    is in the README).
    Output is sorted, exact duplicates are dropped (first occurrence kept),
    times are shifted so the first event sits at 0 and scaled by
    time_unit_scale; the horizon is the last (scaled) timestamp.
    """
    if not 0 < time_unit_scale < math.inf:
        raise ConfigError(f"time_unit_scale must be positive and finite, got {time_unit_scale}")
    with open(path, "rb") as fh:
        data = fh.read()
    first, _, rest = data.partition(b"\n")
    first_line = 1
    try:
        float(first.split(b",", 1)[0])
    except ValueError:  # a header row, or a line 1 to skip anyway
        data, first_line = rest, 2
    try:
        raw = load_csv_rows(data, usecols=0)
    except ValueError as exc:
        raise _rows_error(path, data, first_line, str(exc)) from exc
    if not np.isfinite(raw).all():
        raise _rows_error(path, data, first_line, "non-finite timestamp")
    if not raw.size:
        raise ValueError(f"{path}: no timestamps found")

    if np.any(np.diff(raw) < 0):
        warnings.warn(f"{path}: timestamps were not sorted; sorting", stacklevel=2)
        raw = np.sort(raw, kind="stable")
    keep = np.ones(raw.size, dtype=bool)
    keep[1:] = np.diff(raw) > 0
    n_dup = int(raw.size - keep.sum())
    if n_dup:
        warnings.warn(f"{path}: dropped {n_dup} duplicate timestamp(s)", stacklevel=2)
        raw = raw[keep]
    span = float(raw[-1]) - float(raw[0])
    if not math.isfinite(span * time_unit_scale):
        raise ValueError(f"{path}: the timestamps span {span:g}, which at scale "
                         f"{time_unit_scale:g} is not a finite horizon")
    scaled = (raw - raw[0]) * time_unit_scale
    try:
        return EventSequence(scaled, horizon=float(scaled[-1]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _rows_error(path, data: bytes, first_line: int, reason: str) -> ValueError:
    """List the lines whose first field is not a finite number; blank lines are
    skipped. The given reason if no line is found at fault."""
    bad = []
    for lineno, line in enumerate(data.decode(errors="replace").split("\n"), start=first_line):
        line = line.removesuffix("\r")
        if not line:
            continue
        try:
            ok = math.isfinite(loadtxt_field(line.split(",", 1)[0]))
        except ValueError:
            ok = False
        if not ok:
            bad.append(lineno)
    if not bad:
        return ValueError(f"{path}: {reason}")
    shown = ", ".join(map(str, bad[:10]))
    more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
    return ValueError(f"{path}: unparsable or non-finite timestamps at lines {shown}{more}")
