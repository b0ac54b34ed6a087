"""The events-CSV reader's numpy path against its loadtxt fallback, and the
value types' ownership of their arrays."""
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dphawkes import (CountSeries, EventSequence, ingest_timestamps, read_events_csv,
                      sample_stats, simulate_branching, simulate_thinning, write_events_csv)
from dphawkes import events as events_module
from dphawkes.hawkes import HawkesParams

from .test_events import HEADER, _read_text, labeled_sequences


def _refuse_fallback(path, body):
    raise AssertionError("a file took the loadtxt fallback")


@pytest.mark.parametrize("row, match", [
    ("1_0.5,0,0", r"row 2: could not convert string to float: '1_0\.5'"),
    ("1.0,0_0,0", r"row 2: could not convert string to int: '0_0'"),
    ("1.0,0,٠", r"row 2: could not convert string to int: '٠'"),  # Arabic-Indic 0
])
def test_csv_names_the_row_of_a_field_only_python_reads(tmp_path, row, match):
    with pytest.raises(ValueError, match=rf"ev\.csv: {match}$"):
        _read_text(tmp_path, "\n".join([HEADER, "0.5,0,", row]) + "\n")


def _million_floats():
    """The writer's differential set, as in test_csv_bytes_match_reference_on_a_million_floats."""
    rng = np.random.default_rng(20)
    finite = np.float64(np.inf).view(np.uint64)
    lo, hi = np.array([1e-4, 1e16]).view(np.uint64)
    powers = 10.0 ** np.arange(-5, 18)
    return np.unique(np.concatenate([
        rng.integers(0, finite, 300_000, dtype=np.uint64).view(np.float64),
        rng.integers(lo, hi, 700_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.arange(10_000.0), np.arange(10_000.0) + 0.5,
        np.arange(2.0**53 - 5_000, 2.0**53 + 5_000, 2.0), 1e15 + np.arange(-1_000, 1_000) / 8,
    ]))


def test_csv_reads_back_a_million_floats_bit_for_bit(tmp_path, monkeypatch):
    ts = _million_floats()
    path = tmp_path / "ev.csv"
    write_events_csv(EventSequence(ts, float(ts[-1])), path)
    assert read_events_csv(path).timestamps.tobytes() == ts.tobytes()  # some take the fallback
    # the writer's numpy range takes none
    in_range = ts[(ts == 0) | ((ts >= 1e-4) & (ts < 1e16))]
    assert in_range.size > 700_000
    write_events_csv(EventSequence(in_range, float(in_range[-1])), path)
    monkeypatch.setattr(events_module, "_loadtxt_rows", _refuse_fallback)
    assert read_events_csv(path).timestamps.tobytes() == in_range.tobytes()


def test_benchmark_scale_files_read_with_no_fallback(tmp_path, monkeypatch):
    params = HawkesParams(1.0, 0.5)
    labeled = simulate_branching(params, 1.25e5, seed=7)
    thinning = simulate_thinning(params, 1.25e5, seed=7)
    raw = tmp_path / "raw.csv"  # Unix seconds with microsecond digits
    raw.write_text("timestamp\n" + "".join(f"{1.7e9 + t:.6f}\n" for t in thinning.timestamps))
    ingested = ingest_timestamps(raw)
    monkeypatch.setattr(events_module, "_loadtxt_rows", _refuse_fallback)
    path = tmp_path / "ev.csv"
    for seq in (labeled, thinning, ingested):
        write_events_csv(seq, path)
        back = read_events_csv(path)
        assert back.timestamps.tobytes() == seq.timestamps.tobytes()
        assert back.horizon == seq.timestamps[-1] and back.labeled == seq.labeled
    np.testing.assert_array_equal(back.timestamps, ingested.timestamps)
    write_events_csv(labeled, path)
    back = read_events_csv(path)
    np.testing.assert_array_equal(back.tree_id, labeled.tree_id)
    np.testing.assert_array_equal(back.parent_idx, labeled.parent_idx)


def _assert_nearest(w, f):
    """_nearest_double against exact rational rounding, on each w alone (w < 2**53
    takes Clinger's fast path) and beside a w >= 2**53 (every w takes the residual)."""
    w, f = np.asarray(w, np.uint64), np.asarray(f, np.int64)
    want = np.array([float(Fraction(int(a), 10**int(b))) for a, b in zip(w, f)])
    alone = [events_module._nearest_double(w[i:i + 1], f[i:i + 1])[0] for i in range(w.size)]
    with_big = events_module._nearest_double(np.append(w, np.uint64(10**17 - 1)), np.append(f, 3))
    for got in (np.array(alone), with_big[:-1]):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**17 - 1), st.integers(0, 20)), min_size=1,
                max_size=50))
def test_nearest_double_rounds_the_exact_quotient(pairs):
    _assert_nearest(*zip(*pairs))


def test_nearest_double_on_ties_and_power_of_two_edges():
    rng = np.random.default_rng(27)
    odd = 2**53 + 2 * rng.integers(0, 2**52, 2_000, dtype=np.uint64) + 1  # halfway: to even
    _assert_nearest(np.concatenate([odd, odd * 10]), np.repeat([0, 1], odd.size))
    two_mod_4 = 2**54 + 4 * rng.integers(0, (10**17 - 2**54) // 4, 2_000, dtype=np.uint64) + 2
    _assert_nearest(two_mod_4, np.zeros(two_mod_4.size, np.int64))
    edges = [(round((Fraction(2**k) + Fraction(s, 3)) * 10**f), f)
             for k in range(1, 56) for s in (-2, -1, 1, 2) for f in range(21)]
    _assert_nearest(*zip(*[(w, f) for w, f in edges if w < 10**17]))
    _assert_nearest([0], [0])


_GRAMMAR_FIELDS = st.one_of(
    st.text(st.sampled_from("0123456789. +-e_:/"), max_size=6),
    st.floats(0.0, 1e6).map("{:.17g}".format),
    st.integers(0, 3).map(str),
    st.just(""))


@st.composite
def events_texts(draw):
    """Writer-like rows (increasing %.17g times, labels or none) with some
    bytes overwritten, or rows of 2-4 drawn fields; \\n or \\r\\n line ends
    and blank lines."""
    if draw(st.booleans()):
        times = sorted(set(draw(st.lists(st.floats(0.0, 1e6), max_size=8))))
        labeled = draw(st.booleans())
        tree = "0" if labeled else ""
        rows = [f"{t:.17g},{tree},{draw(st.sampled_from(['', '0'])) if i else ''}"
                for i, t in enumerate(times)]
        for _ in range(draw(st.integers(0, 2)) if rows else 0):
            i = draw(st.integers(0, len(rows) - 1))
            j = draw(st.integers(0, len(rows[i])))
            byte = draw(st.sampled_from("0123456789. +-e_:/,"))
            rows[i] = rows[i][:j] + byte + rows[i][j + 1:]
    else:
        rows = draw(st.lists(st.lists(_GRAMMAR_FIELDS, min_size=2, max_size=4).map(",".join),
                             max_size=5))
    lines = [HEADER]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1)) + [row]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.removesuffix(ends[-1]) if draw(st.booleans()) else text


def _outcome(path):
    try:
        seq = read_events_csv(path)
    except ValueError as exc:
        return str(exc)
    labels = (seq.tree_id.tobytes(), seq.parent_idx.tobytes()) if seq.labeled else None
    return seq.timestamps.tobytes(), labels, seq.horizon


def _same_as_loadtxt(path):
    with mock.patch.object(events_module, "_fast_rows", lambda data: None):
        expected = _outcome(path)
    assert _outcome(path) == expected


@settings(max_examples=300, deadline=None)
@given(events_texts())
def test_csv_fast_path_reads_as_the_loadtxt_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("grammar") / "ev.csv"
    path.write_bytes(text.encode())
    _same_as_loadtxt(path)


@pytest.mark.parametrize("t", [
    "0", "0.0", "5.", ".5", "00.5", "-0", "1e5", "0.1", "0.10000000000000001", "1.5\t", "1:5",
    "1/5", "9999999999999998", "10000000000000000", "0.00010000000000000001",
    "0.000099999999999999991",
    # digit strings whose integer value wraps past 2**64
    "0.18446744073709551616", "18446744073709551616", "1844674407370955.1616",
    "0.36893488147419103232"])
@pytest.mark.parametrize("ids", [",,", ",0,", ",00,7", ",0000000000000000,", ",1,/", ",:,",
                                 ",00000000000000000,", ",1234567890123456,",
                                 ",12345678901234567,"])
def test_csv_fast_path_reads_edge_fields_as_the_loadtxt_path(tmp_path, t, ids):
    path = tmp_path / "ev.csv"
    path.write_text(f"{HEADER}\n{t}{ids}\n")
    _same_as_loadtxt(path)


# --- value types own their arrays -------------------------------------------

_MUTATIONS = [lambda a, i, v: a.__setitem__(i, v), lambda a, i, v: a.fill(v),
              lambda a, i, v: np.add(a, 1, out=a), lambda a, i, v: a[i:].__setitem__(0, v)]


@settings(max_examples=150, deadline=None)
@given(labeled_sequences(), st.booleans(), st.data())
def test_a_mutation_after_construction_raises_or_leaves_the_object_valid(drawn, as_view, data):
    times, tree, parent = drawn
    inputs = [np.array(times), np.array(tree, np.int64), np.array(parent, np.int64),
              np.array([len(times), 3])]
    targets = inputs
    if as_view:  # views are copied, and neither they nor their bases are frozen
        bases = [np.concatenate([a[:1], a]) for a in inputs]
        inputs = [a[1:] for a in bases]
        targets = inputs + bases
    seq = EventSequence(inputs[0], times[-1] if times else 0.0, inputs[1], inputs[2])
    series = CountSeries(inputs[3], 1.0, 2.0)
    stats = series.stats
    before = [a.copy() for a in (seq.timestamps, seq.tree_id, seq.parent_idx)]
    targets = [*targets, seq.timestamps, seq.tree_id, seq.parent_idx, series.counts]
    target = data.draw(st.sampled_from(targets))
    mutate = data.draw(st.sampled_from(_MUTATIONS))
    if target.size:
        try:
            mutate(target, data.draw(st.integers(0, target.size - 1)),
                   data.draw(st.sampled_from([-7, 0, 0.25, 7])))
        except ValueError as exc:
            assert "read-only" in str(exc)
    for a, b in zip((seq.timestamps, seq.tree_id, seq.parent_idx), before):
        assert a.tobytes() == b.tobytes()
    EventSequence(seq.timestamps, seq.horizon, seq.tree_id, seq.parent_idx)
    assert series.counts.tolist() == [len(times), 3] and sample_stats(series) == stats
