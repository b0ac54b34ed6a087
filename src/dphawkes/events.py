"""Event sequences and their CSV serialization."""
from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

CSV_HEADER = ("timestamp", "tree_id", "parent_idx")

# 17 significant digits round-trip every float64 exactly.
_CHILD_ROW = "%.17g,%d,%d\r\n"
_ROOT_ROW = "%.17g,%d,\r\n"
_UNLABELED_ROW = "%.17g,,\r\n"
_BLOCK_ROWS = 1 << 16

# The numpy row formatter covers timestamps 0 and [1e-4, 1e16) (printed in
# positional notation) and every int64 id.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()  # b"0000" .. b"9999"
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10U = 10 ** np.arange(20, dtype=np.uint64)
_POW10F = 10.0 ** np.arange(22)  # exact doubles; to 21: the log10 estimate may be one low
_NOT_DIGIT = 0x8080808080808080  # the bits _digits sets in acc for a byte that is not a digit
_CHUNK = 1 << 18  # a read block ends at the first line end this many bytes on (line_marks)
# _KEEP[n + 16]: the last clip(n, 0, 8) bytes of a little-endian word
_KEEP = np.array([2**64 - 2**(64 - 8 * min(max(n, 0), 8)) for n in range(-16, 17)], np.uint64)


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
        ts = owned_array(self.timestamps, np.float64)
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
            tree = owned_array(self.tree_id, np.int64)
            parent = owned_array(self.parent_idx, np.int64)
            object.__setattr__(self, "tree_id", tree)
            object.__setattr__(self, "parent_idx", parent)
            if tree.shape != ts.shape or parent.shape != ts.shape:
                raise ValueError("label arrays must match timestamps in length")
            if np.any(tree < 0):
                raise ValueError("tree_id must be nonnegative")
            child = np.flatnonzero(parent != -1)
            if child.size:
                p = parent[child]
                if np.any((p < 0) | (p >= child)):
                    raise ValueError("parent_idx must be -1 or an earlier index")
                if np.any(tree[p] != tree[child]):
                    raise ValueError("parent and child must share tree_id")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def labeled(self) -> bool:
        return self.tree_id is not None


def owned_array(a, dtype) -> np.ndarray:
    """a as a read-only array of dtype, copying a view first (its base would stay writable)."""
    a = np.asarray(a, dtype=dtype)
    if a.base is not None:
        a = a.copy()
    a.flags.writeable = False
    return a


def write_events_csv(events: EventSequence, path) -> None:
    """Write the sequence in the events CSV format (see the README), with
    ``\\r\\n`` line ends and 17 significant digits per timestamp."""
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
        # Fixed-size blocks bound the formatted text held in memory.
        for lo in range(0, len(events), _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            t, g, p = events.timestamps[rows], None, None
            if events.labeled:
                g, p = events.tree_id[rows], events.parent_idx[rows]
            if np.all(((t >= 1e-4) | (t == 0)) & (t < 1e16)):
                fh.write(_format_rows(t, g, p))
            else:
                fh.write(_template_rows(t, g, p))


def _template_rows(t, g, p) -> bytes:
    """The rows formatted by the % templates, one Python call per row."""
    if g is None:
        return "".join(map(_UNLABELED_ROW.__mod__, t.tolist())).encode()
    return "".join([_CHILD_ROW % row if row[2] >= 0 else _ROOT_ROW % row[:2]
                    for row in zip(t.tolist(), g.tolist(), p.tolist())]).encode()


def _format_rows(t, g, p) -> bytes:
    """The bytes of _template_rows, built in numpy: each row is laid out in
    fixed columns of a uint8 matrix, unused bytes stay 0 and are dropped."""
    x, d = _decimal17(t)
    digits = _ascii(d, 5)[:, 3:]  # the 17 significant digits
    wt = 18 - min(int(x.min()), 0)  # the widest timestamp in the block
    ids = [_id_ascii(v, t.size) for v in (g, p)]
    mat = np.zeros((t.size, wt + 4 + ids[0].shape[1] + ids[1].shape[1]), np.uint8)
    # Timestamps increase, so rows with one decimal exponent are one slice.
    cuts = [0, *(np.flatnonzero(np.diff(x)) + 1).tolist(), t.size]
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        xe, f, dg = int(x[r0]), mat[r0:r1], digits[r0:r1]
        if xe >= 0:  # integer digits, ".", fraction digits
            f[:, :xe + 1] = dg[:, :xe + 1]
            f[:, xe + 1] = ord(".")
            f[:, xe + 2:18] = dg[:, xe + 1:]
        else:  # "0.", -xe - 1 zeros, the digits
            f[:, :1 - xe] = ord("0")
            f[:, 1] = ord(".")
            f[:, 1 - xe:18 - xe] = dg
    # Strip the fraction's trailing zeros, and the "." if nothing follows it.
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    last[d == 0] = 0
    end = np.where(last > x, last + 2 - np.minimum(x, 0), x + 1)
    mat[:, :wt][np.arange(wt) >= end[:, None]] = 0
    col = wt
    for field in ids:
        mat[:, col] = ord(",")
        mat[:, col + 1:col + 1 + field.shape[1]] = field
        col += 1 + field.shape[1]
    mat[:, col:] = (ord("\r"), ord("\n"))
    return mat[mat != 0].tobytes()


def _decimal17(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, d) such that '%.17g' % t prints the digits of d with decimal
    exponent x: d = t * 10**(16 - x) rounded half to even, 10**16 <= d < 10**17
    (d = x = 0 for t = 0). Every t must be 0 or in [1e-4, 1e16)."""
    zero = t == 0
    t = np.where(zero, 1.0, t)
    x = np.floor(np.log10(t)).astype(np.int64)  # at most 1 off
    d = _round_scaled(t, 16 - x)
    # One correction fixes the estimate, and a rounding carry onto 10**17.
    off = (d >= 10**17).astype(np.int64) - (d < 10**16)
    fix = np.flatnonzero(off)
    if fix.size:
        x[fix] += off[fix]
        d[fix] = _round_scaled(t[fix], 16 - x[fix])
    d[zero] = 0
    x[zero] = 0
    return x, d


def _round_scaled(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """t * 10**q rounded half to even, as int64, for the t and q of _decimal17:
    t in [1e-4, 1e16), 0 <= q <= 21 and 10**15 <= t * 10**q < 10**18.

    Two facts make it exact. 10**q is an exact double, so _two_product gives
    t * 10**q = ph + pl. And e = (ph - rint(ph)) + pl is exact: for ph >= 2**53 it
    is pl; below, |e| <= 1 and both terms are multiples of 2**-52, as is t * 10**q
    (t's 53-bit significand times 5**q < 2**49, scaled to above 2**49). |pl| reaches
    64 above 2**53, so the integer part is rint(ph) + floor(e) summed as int64 (a
    double sum would round), and e - floor(e), exact, rounds it half to even.
    """
    ph, pl = _two_product(t, _POW10F[q])
    r = np.rint(ph)
    e = (ph - r) + pl
    k = np.floor(e)
    d, g = r.astype(np.int64) + k.astype(np.int64), e - k
    return d + ((g > 0.5) | ((g == 0.5) & (d & 1 == 1)))


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ph, pl) with ph = fl(a * b) and ph + pl = a * b exactly: Dekker's TwoProduct
    (1971) from Veltkamp splits, as numpy has no fused multiply-add. Exact while
    no partial product overflows or underflows, as on both callers' domains."""
    a_hi, b_hi = (c - (c - v) for v in (a, b) for c in [v * 134217729.0])
    a_lo, b_lo = a - a_hi, b - b_hi
    ph = a * b
    return ph, ((a_hi * b_hi - ph) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _ascii(v: np.ndarray, chunks: int) -> np.ndarray:
    """The decimal digits of nonnegative integers as uint8 rows of 4 * chunks
    ASCII bytes, zero-padded on the left."""
    out = np.empty((v.size, chunks), np.uint32)
    for j in range(chunks):
        out[:, chunks - 1 - j] = _DIGITS4[v // 10**(4 * j) % 10_000]
    return out.view(np.uint8)


def _id_ascii(v: np.ndarray | None, n: int) -> np.ndarray:
    """Ids as right-aligned ASCII with 0 bytes for leading zeros; a negative
    id (no recorded parent) is an empty field, and so is every row of None."""
    if v is None:
        return np.zeros((n, 0), np.uint8)
    width = 4 * -(-len(str(max(int(v.max()), 0))) // 4)
    out = _ascii(np.maximum(v, 0), width // 4)
    ndigits = np.searchsorted(_POW10, v, side="right") + (v == 0)
    out[np.arange(width) < width - ndigits[:, None]] = 0
    return out


def read_events_csv(path, horizon: float | None = None) -> EventSequence:
    """Read an events CSV (the grammar is in the README).

    When horizon is not given it defaults to the last timestamp. A refused
    file raises ValueError naming the path, and the row for a malformed row.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = data[:data.find(b"\n")] if b"\n" in data else data  # no copy of the rows
    if tuple(h.strip() for h in header.decode(errors="replace").split(",")) != CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
    t, g, p = _fast_rows(data) or _walk_rows(path, data)
    if horizon is None:
        horizon = float(t[-1]) if t.size else 0.0
    try:
        return EventSequence(t, horizon, g, p)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _fast_rows(data: bytes):
    """The (t, g, p) below the header in numpy blocks (g = p = None if unlabeled),
    or None outside this grammar: lines "t,g,p" ended by \\n or \\r\\n, t as
    decimal_fields reads it, ids of at most 16 ASCII digits."""
    if not data.endswith(b"\n"):
        return None
    buf = np.frombuffer(data, np.uint8)
    words = np.ndarray((buf.size - 7,), "<u8", data, strides=(1,))  # words[i]: bytes i..i+7
    t, g, p = [], [], []
    for at, kind in line_marks(data, data.find(b"\n") + 1):
        nl, ci = at[kind == 10], np.flatnonzero(kind == 44)
        if ci.size != 2 * (nl.size - 1):
            return None
        c0, c1, start, end = at[ci[0::2]], at[ci[1::2]], nl[:-1] + 1, nl[1:]
        # The byte below "0" before t's comma splits t if a dot; a dot elsewhere fails a digit check.
        dot = np.where(kind[ci[0::2] - 1] == 46, at[ci[0::2] - 1], c0)
        if np.any(c1 > end) or np.any(c0[1:] < end[:-1]):  # two commas on each line
            return None
        end = end - (buf[end - 1] == 13)
        gl, pl = c1 - c0 - 1, end - c1 - 1
        t.append(decimal_fields(words, start, dot, c0))
        if t[-1] is None or max(gl.max(), pl.max()) > 16:
            return None
        acc = np.zeros(gl.size, np.uint64)
        g.append(_digits(words, c1, gl, acc).view(np.int64) - (gl == 0))  # empty is -1
        p.append(_digits(words, end, pl, acc).view(np.int64) - (pl == 0))
        if np.any(acc & _NOT_DIGIT):
            return None
    if not t:
        return None
    t, g, p = map(np.concatenate, (t, g, p))
    return (t, g, p) if np.any(g != -1) else (t, None, None)


def line_marks(data: bytes, lo: int):
    """(at, kind) for each block of whole lines of data from lo: the positions and values of
    its bytes below "0" (line ends, commas, dots). A block runs from the line end before lo,
    or the one that ended the block before, to the first line end _CHUNK or more bytes on
    (or data's last byte, which must be a line end)."""
    buf = np.frombuffer(data, np.uint8)
    lo = data.rindex(b"\n", 0, lo)
    while lo < buf.size - 1:
        hi = data.index(b"\n", min(lo + _CHUNK, buf.size - 1))
        at = np.flatnonzero(buf[lo:hi + 1] < 48) + lo
        yield at, buf[at]
        lo = hi


def decimal_fields(words, start, dot, end) -> np.ndarray | None:
    """The doubles nearest the fields from start to end, or None unless each is ASCII
    digits, 1 to 16 before dot (= end without a "."), 20 at most after it and 17 at most
    significant. words[i], bytes i..i+7 as a uint64, is read from 24 before each start."""
    il, f = dot - start, np.maximum(end - dot - 1, 0)
    if il.min(initial=1) < 1 or il.max(initial=1) > 16 or f.max(initial=0) > 20:
        return None
    acc = np.zeros(il.size, np.uint64)
    whole = _digits(words, dot, il, acc)
    frac = _digits(words, end, np.minimum(f, 16), acc)
    top = _digits(words, end - 16, np.maximum(f - 16, 0), acc)
    # Without its dot the field is w < 10**17: at most 17 significant digits.
    if np.any((whole >= _POW10U[np.maximum(17 - f, 0)]) | (top >= 10) | (acc & _NOT_DIGIT)):
        return None
    return _nearest_double(whole * _POW10U[np.minimum(f, 19)] + top * 10**16 + frac, f)


def _digits(words, end, n, acc) -> np.ndarray:
    """The uint64 values of the n <= 16 ASCII digits before each end, eight a word
    (the SWAR of fast_float); a byte that is not a digit sets a top bit of acc."""
    v = np.zeros(end.size, np.uint64)
    for j in range(-(-int(n.max(initial=0)) // 8)):
        u = (words[end - 8 * (j + 1)] ^ 0x3030303030303030) & _KEEP[n + (16 - 8 * j)]
        acc |= u | (u + 0x7676767676767676)  # each byte now 0..9, or a top bit set
        u = (u * 2561) >> 8 & 0x00FF00FF00FF00FF  # pairs of digits
        u = (u * 6553601) >> 16 & 0x0000FFFF0000FFFF  # fours
        v += ((u * 42949672960001) >> 32) * _POW10U[8 * j]
    return v


def _nearest_double(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The double nearest w / 10**f (ties to even) for uint64 w < 10**17, f <= 20.

    P = 10**f is exact; q = fl(fl(w) / P). For w in [2**k, 2**(k+1)), |w - fl(w)| / P
    <= 2**(k-53) / P is below the gap between doubles at min(w, fl(w)) / P >= 2**k / P,
    so at most one rounding midpoint lies between w/P and fl(w)/P: the answer is q or
    a neighbour of q (Clinger 1990). r = w - q*P decides, and is computed exactly:
    _two_product gives q*P = ph + pl; fl(w) - ph is exact (Sterbenz), and so
    are the sums that take pl and add w - fl(w) (|w - fl(w)| <= 8),
    as each is a multiple of 2**min(0, e) below 2**53 of them, where 2**e divides q*P.
    q moves up if 2r > (q+ - q)*P, down if 2r < (q- - q)*P (exact: the gaps are powers
    of two), and to the even one on a tie.
    """
    p = _POW10F[f]
    wf = w.astype(np.float64)
    q = wf / p
    if w.max(initial=0) < 2**53:  # w = fl(w): q is the answer
        return q
    ph, pl = _two_product(q, p)
    r2 = 2 * (((wf - ph) - pl) + (w - wf.astype(np.uint64)).view(np.int64))
    bits = q.view(np.int64)  # the gaps: q's ulp above, its predecessor's below (inf at q = 0)
    gap_up = (bits & 0x7FF << 52).view(np.float64) * (p * 2.0**-52)
    gap_down = ((bits - 1) & 0x7FF << 52).view(np.float64) * (p * -2.0**-52)
    odd = (bits & 1).astype(bool)
    up = np.where(odd, r2 >= gap_up, r2 > gap_up)
    down = np.where(odd, r2 <= gap_down, r2 < gap_down)
    return (bits + up - down).view(np.float64)


def _walk_rows(path, data: bytes):
    """The (t, g, p) of read_events_csv for any file, one line at a time (empty ids are
    -1), or a ValueError naming the first refused row, numbered as tables.read_table
    numbers rows."""
    t, g, p = array("d"), array("q"), array("q")
    rows = text_lines(data)
    next(rows, None)  # the header, already checked
    for n, (_, line) in enumerate(rows, start=1):
        fields = line.split(",")
        if len(fields) != len(CSV_HEADER):
            raise ValueError(f"{path}: row {n} has {len(fields)} fields, "
                             f"expected {len(CSV_HEADER)}")
        try:
            t.append(parse_field(fields[0]))
            g.append(parse_field(fields[1], int) if fields[1] else -1)
            p.append(parse_field(fields[2], int) if fields[2] else -1)
        except OverflowError:  # array("q") holds int64 values only
            raise ValueError(f"{path}: row {n}: an id outside int64") from None
        except ValueError as bad:
            raise ValueError(f"{path}: row {n}: {bad}") from None
    # Every row has three fields, so two adjacent commas mark exactly an empty tree_id.
    if data.count(b",,") == len(t):
        return np.array(t), None, None
    return np.array(t), np.array(g), np.array(p)


def text_lines(data: bytes, start: int = 1):
    """(number, text) of each non-empty line of data, lazily, numbered from start:
    data split at b"\\n", with one trailing b"\\r" dropped. A "\\r" left in a line
    ends no line: the readers refuse it."""
    for n, line in enumerate(io.BytesIO(data), start):
        line = line.removesuffix(b"\n").removesuffix(b"\r")
        if line:
            yield n, line.decode(errors="replace")


def parse_field(text: str, kind=float):
    """kind(text) for an ASCII field with no '_' or '\\r': the walkers' one field rule.
    Python's float() and int() also read '_' separators and non-ASCII digits, and
    skip a '\\r' as space."""
    value = kind(text)
    if not text.isascii() or "_" in text or "\r" in text:
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    return value
