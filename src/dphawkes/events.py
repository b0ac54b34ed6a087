"""Event sequences and their CSV serialization."""
from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = ("timestamp", "tree_id", "parent_idx")

# 17 significant digits round-trip every float64 exactly.
_CHILD_ROW = "%.17g,%d,%d\r\n"
_ROOT_ROW = "%.17g,%d,\r\n"
_UNLABELED_ROW = "%.17g,,\r\n"
_BLOCK_ROWS = 1 << 16

# An empty label field is read as -1 (no tree id / no recorded parent).
_EMPTY_LABEL = ((b",,", b",-1,"), (b",\r\n", b",-1\r\n"), (b",\n", b",-1\n"))
_ROW_DTYPE = np.dtype([("t", "f8"), ("g", "i8"), ("p", "i8")])


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing event timestamps on [0, horizon].

    Branching-labeled sequences carry a tree id per event and, where the parent
    is itself inside the window, the parent's index in this sequence
    (-1 marks no recorded parent). Sequences generated with a warmup may
    contain parentless events that are not immigrants: their true parent fell
    before time 0 and was discarded.
    """

    timestamps: np.ndarray
    horizon: float
    tree_id: np.ndarray | None = field(default=None)
    parent_idx: np.ndarray | None = field(default=None)

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.float64)
        object.__setattr__(self, "timestamps", ts)
        if ts.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if not 0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be nonnegative and finite, got {self.horizon}")
        if ts.size:
            if not (ts[0] >= 0 and ts[-1] <= self.horizon):  # refuses nan too
                raise ValueError("timestamps must lie in [0, horizon]")
            if not np.all(np.diff(ts) > 0):
                raise ValueError("timestamps must be strictly increasing")
        if (self.tree_id is None) != (self.parent_idx is None):
            raise ValueError("tree_id and parent_idx must be given together")
        if self.tree_id is not None:
            tree = np.asarray(self.tree_id, dtype=np.int64)
            parent = np.asarray(self.parent_idx, dtype=np.int64)
            object.__setattr__(self, "tree_id", tree)
            object.__setattr__(self, "parent_idx", parent)
            if tree.shape != ts.shape or parent.shape != ts.shape:
                raise ValueError("label arrays must match timestamps in length")
            if np.any(tree < 0):
                raise ValueError("tree_id must be nonnegative")
            child = np.flatnonzero(parent >= 0)
            if child.size:
                p = parent[child]
                if np.any(p >= child):
                    raise ValueError("parent_idx must point to an earlier event")
                if np.any(tree[p] != tree[child]):
                    raise ValueError("parent and child must share tree_id")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def labeled(self) -> bool:
        return self.tree_id is not None


def write_events_csv(events: EventSequence, path) -> None:
    """Write the sequence in the events CSV format (see the README), with
    ``\\r\\n`` line ends and 17 significant digits per timestamp."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        # Fixed-size blocks bound the formatted text held in memory.
        for lo in range(0, len(events), _BLOCK_ROWS):
            ts = events.timestamps[lo:lo + _BLOCK_ROWS].tolist()
            if events.labeled:
                rows = zip(ts, events.tree_id[lo:lo + _BLOCK_ROWS].tolist(),
                           events.parent_idx[lo:lo + _BLOCK_ROWS].tolist())
                fh.write("".join([_CHILD_ROW % row if row[2] >= 0 else _ROOT_ROW % row[:2]
                                  for row in rows]))
            else:
                fh.write("".join(map(_UNLABELED_ROW.__mod__, ts)))


def read_events_csv(path, horizon: float | None = None) -> EventSequence:
    """Read an events CSV (the grammar is in the README).

    When horizon is not given it defaults to the last timestamp. A refused
    file raises ValueError naming the path, and the row for a malformed row.
    """
    with open(path, "rb") as fh:
        header, _, body = fh.read().partition(b"\n")
    if tuple(h.strip() for h in header.decode(errors="replace").split(",")) != CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
    # In a row of three fields only an empty tree_id sits between two commas.
    empty_tree_rows = body.count(b",,")
    for empty, filled in _EMPTY_LABEL:
        body = body.replace(empty, filled)
    if body.endswith(b","):
        body += b"-1"
    try:
        rows = load_csv_rows(body, dtype=_ROW_DTYPE)
    except ValueError as exc:
        raise _row_error(path, body, exc) from exc
    ts = rows["t"].copy()
    if horizon is None:
        horizon = float(ts[-1]) if ts.size else 0.0
    try:
        if empty_tree_rows < ts.size:
            return EventSequence(ts, horizon, rows["g"].copy(), rows["p"].copy())
        return EventSequence(ts, horizon)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_csv_rows(data: bytes, **loadtxt_args) -> np.ndarray:
    """Comma-separated rows parsed by np.loadtxt, with no comment character;
    data holding no rows gives an empty array and no warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(io.BytesIO(data), delimiter=",", comments=None, ndmin=1,
                          **loadtxt_args)


def _row_error(path, body: bytes, exc: ValueError) -> ValueError:
    """The first row of body that is refused, numbered as tables.read_table
    numbers rows; the parser's own message if no row is found at fault."""
    lines = (line.removesuffix("\r") for line in body.decode(errors="replace").split("\n"))
    for n, line in enumerate(filter(None, lines), start=1):
        fields = line.split(",")
        if len(fields) != len(CSV_HEADER):
            return ValueError(f"{path}: row {n} has {len(fields)} fields, "
                              f"expected {len(CSV_HEADER)}")
        try:
            float(fields[0]), int(fields[1]), int(fields[2])
        except ValueError as bad:
            return ValueError(f"{path}: row {n}: {bad}")
    return ValueError(f"{path}: {exc}")
