"""The record-CSV format of every result table except the events file.

A table is a header line followed by comma-joined rows, with ``\\n`` line
ends. A float is written with 17 significant digits (an exact float64 round
trip), ``None`` as an empty field and a bool as ``0``/``1``.
"""
from __future__ import annotations


def cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def opt_float(field: str) -> float | None:
    return float(field) if field else None


def write_table(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


def read_table(path, header) -> list[list[str]]:
    """The rows after a checked header line, as fields; blank lines are skipped."""
    with open(path, newline="") as fh:
        if tuple(fh.readline().strip().split(",")) != tuple(header):
            raise ValueError(f"{path}: expected header {','.join(header)}")
        rows = []
        for line in fh:
            row = line.strip().split(",")
            if row == [""]:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {len(rows) + 1} has {len(row)} fields, "
                                 f"expected {len(header)}")
            rows.append(row)
    return rows
