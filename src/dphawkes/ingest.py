"""Ingestion of raw timestamp files into canonical event sequences."""
from __future__ import annotations

import math
import warnings
from array import array

import numpy as np

from .errors import ConfigError
from .events import EventSequence, decimal_fields, line_marks, parse_field, text_lines


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
    eol = data.index(b"\n") if b"\n" in data else len(data)  # line 1's end
    lo, first_line = 0, 1
    try:
        parse_field(data[:eol].removesuffix(b"\r").decode(errors="replace").split(",", 1)[0])
    except ValueError:  # a header row, or a line 1 to skip anyway
        lo, first_line = eol + 1, 2
    raw = _first_fields(memoryview(data)[lo:])  # no copy: the padded buffer is the only one
    if raw is None:
        raw = _walk_first_fields(path, data[lo:], first_line)
    if not raw.size:
        raise ValueError(f"{path}: no timestamps found")

    if np.any(np.diff(raw) < 0):
        warnings.warn(f"{path}: timestamps were not sorted; sorting", stacklevel=2)
    n_raw, raw = raw.size, np.unique(raw)
    if raw.size < n_raw:
        warnings.warn(f"{path}: dropped {n_raw - raw.size} duplicate timestamp(s)",
                      stacklevel=2)
    span = float(raw[-1]) - float(raw[0])
    if not math.isfinite(span * time_unit_scale):
        raise ValueError(f"{path}: the timestamps span {span:g}, which at scale "
                         f"{time_unit_scale:g} is not a finite horizon")
    scaled = (raw - raw[0]) * time_unit_scale
    try:
        return EventSequence(scaled, horizon=float(scaled[-1]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _first_fields(data: bytes | memoryview) -> np.ndarray | None:
    """The first field of each non-blank line, read by events.decimal_fields; None
    outside this grammar: the field ends at a "," or the line's end, \\n or \\r\\n,
    and holds no byte below "0" but one "." at most; no "\\r" stands alone."""
    data = b"".join((b"\n" * 24, data, b"\n"))  # no read before the first line
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((buf.size - 7,), "<u8", data, strides=(1,))
    parts = []
    for at, kind in line_marks(data, 24):
        if np.any(buf[at[kind == 13] + 1] != 10):
            return None
        line = np.flatnonzero(kind == 10)[:-1] + 1  # indexing at: each line's
        start, dot = at[line - 1] + 1, at[line]  # first byte below "0" ends the field, or the next
        end = at[line + (kind[line] == 46)]  # if it is a dot
        if not np.all(np.isin(buf[end], (10, 13, 44))):
            return None
        keep = (end > start) | (buf[end] == 44)  # blank lines are skipped
        parts.append(decimal_fields(words, start[keep], dot[keep], end[keep]))
        if parts[-1] is None:
            return None
    return np.concatenate(parts)


def _walk_first_fields(path, data: bytes, first_line: int) -> np.ndarray:
    """The first field of each non-empty line as a finite float, one line at a time, or a
    ValueError listing the lines (counted in the file) that hold anything else."""
    raw, bad = array("d"), []
    for lineno, line in text_lines(data, start=first_line):
        try:
            value = parse_field(line.split(",", 1)[0])
        except ValueError:
            value = math.nan
        if math.isfinite(value) and "\r" not in line:
            raw.append(value)
        else:
            bad.append(lineno)
    if bad:
        shown = ", ".join(map(str, bad[:10]))
        more = "" if len(bad) <= 10 else f" (+{len(bad) - 10} more)"
        raise ValueError(f"{path}: unparsable or non-finite timestamps at lines {shown}{more}")
    return np.array(raw)
