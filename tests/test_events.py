import csv
import hashlib
import io
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dphawkes import (EventSequence, read_events_csv, simulate_branching,
                      simulate_thinning, write_events_csv)
from dphawkes import events as events_module
from dphawkes.hawkes import HawkesParams


def test_rejects_decreasing_timestamps():
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 0.5]), horizon=2.0)


def test_rejects_ties():
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 1.0]), horizon=2.0)


def test_rejects_out_of_window():
    with pytest.raises(ValueError):
        EventSequence(np.array([-0.1, 1.0]), horizon=2.0)
    with pytest.raises(ValueError):
        EventSequence(np.array([1.0, 3.0]), horizon=2.0)


def test_parent_link_validation():
    ts = np.array([0.5, 1.0])
    with pytest.raises(ValueError):  # parent after child
        EventSequence(ts, 2.0, tree_id=np.array([0, 0]), parent_idx=np.array([1, -1]))
    with pytest.raises(ValueError):  # cross-tree parent
        EventSequence(ts, 2.0, tree_id=np.array([0, 1]), parent_idx=np.array([-1, 0]))
    with pytest.raises(ValueError, match="parent_idx must be -1 or an earlier index"):
        EventSequence(ts, 2.0, tree_id=np.array([0, 0]), parent_idx=np.array([-7, 0]))
    ok = EventSequence(ts, 2.0, tree_id=np.array([0, 0]), parent_idx=np.array([-1, 0]))
    assert ok.labeled and len(ok) == 2


def test_label_checks_refuse_across_blocks_in_check_order():
    # Each check runs over every block before the next starts: a cross-tree
    # parent in the first block and a later parent in the last still give the
    # parent_idx message, as one whole-sequence pass of each check would.
    n = 2 * events_module._BLOCK_ROWS + 5

    def sequence(last_parent, tie=0):
        tree, parent = np.zeros(n, np.int64), np.arange(-1, n - 1)
        tree[1] = 1
        parent[-1] = last_parent
        ts = np.arange(1.0, n + 1)
        ts[tie] = ts[tie - 1] if tie else ts[0]
        return EventSequence(ts, float(n), tree, parent)

    with pytest.raises(ValueError, match="parent_idx must be -1 or an earlier index"):
        sequence(n)
    with pytest.raises(ValueError, match="parent and child must share tree_id"):
        sequence(n - 2)
    with pytest.raises(ValueError, match="timestamps must be strictly increasing"):
        sequence(n, tie=events_module._BLOCK_ROWS)  # a tie across a block boundary


def test_label_validation_memory_stays_block_sized():
    # Checks run on blocks of _BLOCK_ROWS rows, so the traced peak is one block's
    # temporaries, 0.66 MB measured (numpy 2.4.6), at any length: checks on the
    # whole sequence peaked at 34.6 MB here, where every event has a parent.
    n = 1 << 20

    def sequence():
        return EventSequence(np.arange(1.0, n + 1), float(n), np.zeros(n, np.int64),
                             np.arange(-1, n - 1))

    sequence()  # numpy's lazy imports stay out of the trace
    ts, tree, parent = np.arange(1.0, n + 1), np.zeros(n, np.int64), np.arange(-1, n - 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        EventSequence(ts, float(n), tree, parent)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_labels_must_come_together():
    with pytest.raises(ValueError):
        EventSequence(np.array([0.5]), 1.0, tree_id=np.array([0]), parent_idx=None)


def test_rejects_shapes_that_are_not_one_sequence():
    with pytest.raises(ValueError, match="timestamps must be one-dimensional"):
        EventSequence(np.array([[0.5, 1.0]]), horizon=2.0)
    with pytest.raises(ValueError, match="label arrays must match timestamps in length"):
        EventSequence(np.array([0.5, 1.0]), 2.0, tree_id=np.array([0]),
                      parent_idx=np.array([-1]))
    with pytest.raises(ValueError, match="label arrays must match timestamps in length"):
        EventSequence(np.array([0.5, 1.0]), 2.0, tree_id=np.array([0, 0]),
                      parent_idx=np.array([-1, 0, 1]))


def test_csv_round_trip_unlabeled(tmp_path):
    seq = EventSequence(np.array([0.123456789012345, 1.0, 1.9999999999]), horizon=2.0)
    path = tmp_path / "ev.csv"
    write_events_csv(seq, path)
    back = read_events_csv(path, horizon=2.0)
    assert not back.labeled
    np.testing.assert_array_equal(back.timestamps, seq.timestamps)  # exact floats


def test_csv_round_trip_labeled(tmp_path):
    seq = simulate_branching(HawkesParams(1.0, 0.5), 200.0, seed=11, warmup=0.0)
    path = tmp_path / "ev.csv"
    write_events_csv(seq, path)
    back = read_events_csv(path, horizon=200.0)
    np.testing.assert_array_equal(back.timestamps, seq.timestamps)
    np.testing.assert_array_equal(back.tree_id, seq.tree_id)
    np.testing.assert_array_equal(back.parent_idx, seq.parent_idx)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,tree,parent\n0.5,,\n")
    with pytest.raises(ValueError):
        read_events_csv(path)


def test_one_immigrant_per_tree_without_warmup():
    seq = simulate_branching(HawkesParams(1.0, 0.5), 500.0, seed=21, warmup=0.0)
    roots = seq.tree_id[seq.parent_idx < 0]
    assert len(roots) == len(set(roots.tolist()))  # one parentless event per tree
    present = np.unique(seq.tree_id)
    assert set(roots.tolist()) == set(present.tolist())


def test_rejects_nan_timestamps():
    for ts in ([np.nan], [0.5, np.nan], [np.nan, 0.5], [0.5, np.nan, 1.0]):
        with pytest.raises(ValueError):
            EventSequence(np.array(ts), horizon=2.0)


def test_rejects_non_finite_horizon():
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            EventSequence(np.array([1.0]), horizon=horizon)


# --- the events CSV grammar -------------------------------------------------

HEADER = "timestamp,tree_id,parent_idx"


def _read_text(tmp_path, text: str, **kwargs):
    path = tmp_path / "ev.csv"
    path.write_bytes(text.encode())
    return read_events_csv(path, **kwargs)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_csv_reads_lf_and_crlf_line_ends(tmp_path, eol):
    labeled = _read_text(tmp_path, eol.join([HEADER, "0.5,0,", "1.25,0,0", "2,1,"]) + eol)
    np.testing.assert_array_equal(labeled.timestamps, [0.5, 1.25, 2.0])
    np.testing.assert_array_equal(labeled.tree_id, [0, 0, 1])
    np.testing.assert_array_equal(labeled.parent_idx, [-1, 0, -1])
    unlabeled = _read_text(tmp_path, eol.join([HEADER, "0.5,,", "1.25,,"]))  # no final eol
    assert not unlabeled.labeled
    np.testing.assert_array_equal(unlabeled.timestamps, [0.5, 1.25])


def test_csv_skips_blank_lines(tmp_path):
    seq = _read_text(tmp_path, f"{HEADER}\n\n0.5,0,\n\n\n1.0,0,0\n\n")
    np.testing.assert_array_equal(seq.timestamps, [0.5, 1.0])
    np.testing.assert_array_equal(seq.parent_idx, [-1, 0])
    seq = _read_text(tmp_path, f"{HEADER}\r\n\r\n0.5,,\r\n\r\n")
    np.testing.assert_array_equal(seq.timestamps, [0.5])


def test_csv_allows_spaces_around_fields_and_in_header(tmp_path):
    seq = _read_text(tmp_path, " timestamp , tree_id ,parent_idx \n 0.5 , 3 ,\n1.0 ,3, 0 \n")
    np.testing.assert_array_equal(seq.timestamps, [0.5, 1.0])
    np.testing.assert_array_equal(seq.tree_id, [3, 3])
    np.testing.assert_array_equal(seq.parent_idx, [-1, 0])
    seq = _read_text(tmp_path, f"{HEADER}\n 0.5 ,,\n")
    assert not seq.labeled and seq.timestamps.tolist() == [0.5]


@pytest.mark.parametrize("text", [HEADER, HEADER + "\n", HEADER + "\r\n", HEADER + "\n\n"])
def test_csv_header_only_is_empty_and_silent(tmp_path, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seq = _read_text(tmp_path, text)
    assert len(seq) == 0 and seq.horizon == 0.0 and not seq.labeled
    assert _read_text(tmp_path, text, horizon=5.0).horizon == 5.0


@pytest.mark.parametrize("rows", [["0.5,-1,"], ["0.5,-1,", "1.0,-1,"], ["0.5,0,", "1.0,-1,"]])
def test_csv_refuses_literal_negative_tree_id(tmp_path, rows):
    with pytest.raises(ValueError, match="tree_id must be nonnegative"):
        _read_text(tmp_path, "\n".join([HEADER, *rows]) + "\n")


@pytest.mark.parametrize("text", [f"{HEADER}\n# a note\n0.5,,\n",
                                  f"{HEADER}\n0.5,,\n#1.0,,\n",
                                  f"{HEADER}\n0.5,0,#\n"])
def test_csv_hash_is_not_a_comment(tmp_path, text):
    with pytest.raises(ValueError):
        _read_text(tmp_path, text)


@pytest.mark.parametrize("row, fields", [("0.5", 1), ("0.5,0", 2), ("0.5,0,,", 4),
                                         ("0.5,,,", 4), ("0.5,0,0,7", 4)])
def test_csv_refuses_rows_without_three_fields(tmp_path, row, fields):
    text = "\n".join([HEADER, "0.25,0,", "", row, "1.0,0,0"]) + "\n"
    with pytest.raises(ValueError, match=rf"ev\.csv: row 2 has {fields} fields, expected 3"):
        _read_text(tmp_path, text)


@pytest.mark.parametrize("rows, match", [
    (["0.5,,", "abc,,"], r"row 2: could not convert string to float: 'abc'"),
    (["0.5,x,"], r"row 1: invalid literal for int\(\) with base 10: 'x'"),
    (["0.5,0,0.5"], r"row 1: invalid literal for int\(\) with base 10: '0.5'"),
    (["0.5,-1,"], "tree_id must be nonnegative"),
    (["0.5,,", "nan,,"], "finite"),
    (["0.5,0,", "0.25,0,"], "strictly increasing"),
    (["0.5,0,-7", "1.0,0,0"], "parent_idx must be -1 or an earlier index"),
])
def test_csv_refusals_name_the_file(tmp_path, rows, match):
    with pytest.raises(ValueError, match=rf"^.*ev\.csv: .*{match}"):
        _read_text(tmp_path, "\n".join([HEADER, *rows]) + "\n")


@pytest.mark.parametrize("rows", [["nan,,"], ["0.5,,", "nan,,"], ["nan,0,", "1.0,0,0"]])
def test_csv_refuses_nan_timestamp_with_a_given_horizon(tmp_path, rows):
    with pytest.raises(ValueError, match=r"ev\.csv: "):
        _read_text(tmp_path, "\n".join([HEADER, *rows]) + "\n", horizon=2.0)


# --- the bytes written ------------------------------------------------------

EDGE_TIMES = [0.0, 5e-324, 1e-300, 0.1, 0.12345678901234568, 1.0000000000000002,
              1234.5678901234567, 98765.432109876543, 1e15]


def _csv_writer_reference(events) -> bytes:
    """The file as csv.writer writes it, one row at a time."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["timestamp", "tree_id", "parent_idx"])
    if events.labeled:
        for t, g, p in zip(events.timestamps, events.tree_id, events.parent_idx):
            w.writerow(["{:.17g}".format(t), int(g), "" if p < 0 else int(p)])
    else:
        for t in events.timestamps:
            w.writerow(["{:.17g}".format(t), "", ""])
    return buf.getvalue().encode()


def test_csv_bytes_match_csv_writer_on_edge_floats(tmp_path):
    ts = np.array(EDGE_TIMES)
    tree = np.array([0, 0, 1, 0, 1, 2, 2, 0, 3])
    parent = np.array([-1, 0, -1, 1, 2, -1, 5, 3, -1])
    path = tmp_path / "ev.csv"
    for seq in (EventSequence(ts, 1e15), EventSequence(ts, 1e15, tree, parent)):
        write_events_csv(seq, path)
        assert path.read_bytes() == _csv_writer_reference(seq)
        back = read_events_csv(path, horizon=1e15)
        assert back.timestamps.tobytes() == ts.tobytes()
        assert back.labeled == seq.labeled
    assert _csv_writer_reference(EventSequence(np.array([]), 0.0)) == HEADER.encode() + b"\r\n"
    write_events_csv(EventSequence(np.array([]), 0.0), path)
    assert path.read_bytes() == HEADER.encode() + b"\r\n"


@st.composite
def labeled_sequences(draw):
    times = sorted(set(draw(st.lists(
        st.floats(0.0, 1e15, allow_nan=False, allow_subnormal=True), max_size=40))))
    tree, parent = [], []
    for i in range(len(times)):
        p = draw(st.integers(-1, i - 1))
        parent.append(p)
        tree.append(tree[p] if p >= 0 else draw(st.integers(0, 2**62)))
    return times, tree, parent


@settings(max_examples=150, deadline=None)
@given(labeled_sequences(), st.booleans())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, drawn, labeled):
    times, tree, parent = drawn
    ts = np.array(times, dtype=np.float64)
    horizon = times[-1] if times else 0.0
    seq = (EventSequence(ts, horizon, np.array(tree, dtype=np.int64),
                         np.array(parent, dtype=np.int64))
           if labeled else EventSequence(ts, horizon))
    path = tmp_path_factory.mktemp("rt") / "ev.csv"
    write_events_csv(seq, path)
    assert path.read_bytes() == _csv_writer_reference(seq)
    back = read_events_csv(path)
    assert back.horizon == horizon
    assert back.timestamps.tobytes() == ts.tobytes()
    assert back.labeled == (labeled and len(seq) > 0)
    if back.labeled:
        np.testing.assert_array_equal(back.tree_id, seq.tree_id)
        np.testing.assert_array_equal(back.parent_idx, seq.parent_idx)


def test_csv_bytes_at_benchmark_scale_are_pinned(tmp_path):
    # sha256 of the files written at T = 1.25e5, seed 7; they move only with
    # the sampler's draws. The format is a contract, checked against csv.writer.
    seq = simulate_branching(HawkesParams(1.0, 0.5), 1.25e5, seed=7)
    path = tmp_path / "ev.csv"
    for events, digest in (
            (seq, "cfbc0df8f01c226356428ba980cc259f464ea29fb750df583dbaaacf1c1512b6"),
            (EventSequence(seq.timestamps, seq.horizon),
             "fd15a806c1d1ea0f9f21b907abfc4b3dd24bc26006e395144f7e187ae96689c1")):
        write_events_csv(events, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert path.read_bytes() == _csv_writer_reference(events)
        back = read_events_csv(path, horizon=seq.horizon)
        assert back.timestamps.tobytes() == seq.timestamps.tobytes()


# --- the numpy row formatter against the reference --------------------------

def _write_matches_reference(tmp_path, seq):
    path = tmp_path / "ev.csv"
    write_events_csv(seq, path)
    assert path.read_bytes() == _csv_writer_reference(seq)


def test_csv_bytes_match_reference_on_a_million_floats(tmp_path):
    rng = np.random.default_rng(20)
    finite = np.float64(np.inf).view(np.uint64)
    lo, hi = np.array([1e-4, 1e16]).view(np.uint64)
    powers = 10.0 ** np.arange(-5, 18)
    ts = np.unique(np.concatenate([
        # bit patterns of every nonnegative finite double, subnormals included
        rng.integers(0, finite, 300_000, dtype=np.uint64).view(np.float64),
        # bit patterns in the formatter's range
        rng.integers(lo, hi, 700_000, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.arange(10_000.0), np.arange(10_000.0) + 0.5,
        np.arange(2.0**53 - 5_000, 2.0**53 + 5_000, 2.0), 1e15 + np.arange(-1_000, 1_000) / 8,
    ]))
    assert ts.size >= 1_000_000
    _write_matches_reference(tmp_path, EventSequence(ts, float(ts[-1])))


def test_two_product_is_exact_on_both_callers_domains():
    """ph == fl(a*b) and ph + pl == a*b, for the writer's t in [1e-4, 1e16) times
    10**q (q <= 21) and the reader's quotients fl(w) / 10**f times 10**f (f <= 20)."""
    rng = np.random.default_rng(28)
    lo, hi = np.array([1e-4, 1e16]).view(np.uint64)
    t = rng.integers(lo, hi, 20_000, dtype=np.uint64).view(np.float64)
    f = rng.integers(0, 21, 20_000)
    quotient = rng.integers(0, 10**17, f.size, dtype=np.uint64).astype(np.float64) / 10.0**f
    for a, b in ((t, 10.0 ** rng.integers(0, 22, t.size)), (quotient, 10.0**f)):
        ph, pl = events_module._two_product(a, b)
        for x, y, h, low in zip(a.tolist(), b.tolist(), ph.tolist(), pl.tolist()):
            exact = Fraction(x) * Fraction(y)
            assert h == float(exact) and Fraction(h) + Fraction(low) == exact


def test_csv_bytes_match_reference_where_significand_is_ten_to_sixteen(tmp_path):
    # 17 digits "10000000000000000", of which up to 16 trailing zeros are stripped
    ts = np.array([1e-4, 1e-3, 0.01, 0.1, 1.0, 1e5, 1e15])
    assert ["%.17g" % t for t in ts[[0, 4, 6]]] == ["0.0001", "1", "1000000000000000"]
    _write_matches_reference(tmp_path, EventSequence(ts, 1e15))
    _write_matches_reference(tmp_path, EventSequence(np.concatenate([[0.0], ts]), 1e15))


def _significands_ending_in_zeros() -> list[float]:
    """For each decimal exponent x in -4..15 and k in 0..16, the first double
    whose 17 significant digits are head + k zeros (head = 10**(16 - k), + 1, ...,
    not ending in 0): the writer's trailing-zero count at every chunk boundary."""
    ts = []
    for x in range(-4, 16):
        for k in range(17):
            for head in range(10 ** (16 - k), 10 ** (17 - k)):
                t = float(f"{head}e{x - 16 + k}")
                digits, exponent = ("%.16e" % t).replace(".", "").split("e")
                if head % 10 and digits == f"{head}{'0' * k}" and int(exponent) == x:
                    break
            ts.append(t)
    return sorted(ts)


@pytest.mark.parametrize("ts", [[9.9999999999999991e-05, 1e-4, 1.0], [3e-5, 0.5],
                                [1.0, 9999999999999998.0, 1e16], [0.5, 3e16],
                                _significands_ending_in_zeros()])
def test_csv_bytes_match_reference_at_the_formatter_range_edges(tmp_path, ts):
    _write_matches_reference(tmp_path, EventSequence(np.array(ts), ts[-1]))


def test_csv_falls_back_for_the_block_that_needs_it(tmp_path, monkeypatch):
    n = events_module._BLOCK_ROWS
    ts = np.append(np.linspace(1.0, 1e6, n), 2e16)  # the last row prints as 2e+16
    fallback = []
    template_rows = events_module._template_rows
    monkeypatch.setattr(events_module, "_template_rows",
                        lambda t, g, p: fallback.append(t.size) or template_rows(t, g, p))
    _write_matches_reference(tmp_path, EventSequence(ts, 2e16))
    assert fallback == [1]


def test_csv_bytes_match_reference_on_id_widths(tmp_path, monkeypatch):
    ids = sorted({v for j in range(17) for v in (10**j - 1, 10**j)} - {10**16})
    # each tree id once as a root and once as its child
    tree = np.repeat(ids, 2)
    parent = np.where(np.arange(tree.size) % 2, np.arange(tree.size) - 1, -1)
    ts = np.arange(1, tree.size + 1) * 0.5
    _write_matches_reference(tmp_path, EventSequence(ts, ts[-1], tree, parent))
    # 17 to 19 digits, up to the largest int64, all formatted in numpy: a template
    # call would raise
    big = np.append(tree, [10**16, 10**17, 10**18 - 1, 10**18, 2**63 - 1])
    ts = np.arange(1, big.size + 1) * 0.5
    monkeypatch.setattr(events_module, "_template_rows", None)
    _write_matches_reference(
        tmp_path, EventSequence(ts, ts[-1], big, np.append(parent, [-1] * 5)))
    # parents at every 10**j - 1 and 10**j up to 10**5, in one tree
    n = 100_002
    parent = np.arange(-1, n - 1)
    parent[np.random.default_rng(4).random(n) < 0.25] = -1
    ts = np.arange(1, n + 1) * 0.25
    _write_matches_reference(tmp_path, EventSequence(ts, ts[-1], np.full(n, 7), parent))


def test_benchmark_scale_sequences_take_no_fallback(tmp_path, monkeypatch):
    # A narrowed range check would show here, not only as a slower write.
    def refuse(t, g, p):
        raise AssertionError("a block took the % template fallback")

    params = HawkesParams(1.0, 0.5)
    span = np.concatenate([[0.0], np.geomspace(1e-4, 9999999999999998.0, 20_000)])
    monkeypatch.setattr(events_module, "_template_rows", refuse)
    for seq in (simulate_branching(params, 1.25e5, seed=7),
                simulate_thinning(params, 1.25e5, seed=7),
                EventSequence(span, span[-1])):
        write_events_csv(seq, tmp_path / "ev.csv")
