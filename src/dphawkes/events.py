"""Event sequences and their CSV serialization."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = ("timestamp", "tree_id", "parent_idx")

# 17 significant digits: shortest formatting that round-trips float64 exactly.
_FMT = "{:.17g}"


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
            if ts[0] < 0 or ts[-1] > self.horizon:
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        if events.labeled:
            for t, g, p in zip(events.timestamps, events.tree_id, events.parent_idx):
                w.writerow([_FMT.format(t), int(g), "" if p < 0 else int(p)])
        else:
            for t in events.timestamps:
                w.writerow([_FMT.format(t), "", ""])


def read_events_csv(path, horizon: float | None = None) -> EventSequence:
    """Read a sequence written by write_events_csv.

    When horizon is not given it defaults to the last timestamp.
    """
    ts: list[float] = []
    tree: list[int] = []
    parent: list[int] = []
    any_tree = False
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for row in r:
            if not row:
                continue
            ts.append(float(row[0]))
            g = row[1].strip() if len(row) > 1 else ""
            p = row[2].strip() if len(row) > 2 else ""
            if g:
                any_tree = True
                tree.append(int(g))
                parent.append(int(p) if p else -1)
            else:
                tree.append(-1)
                parent.append(-1)
    t_arr = np.asarray(ts, dtype=np.float64)
    if horizon is None:
        horizon = float(t_arr[-1]) if t_arr.size else 0.0
    if any_tree:
        return EventSequence(t_arr, horizon,
                             np.asarray(tree, dtype=np.int64),
                             np.asarray(parent, dtype=np.int64))
    return EventSequence(t_arr, horizon)
