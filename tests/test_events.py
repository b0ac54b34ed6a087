import numpy as np
import pytest

from dphawkes import (EventSequence, read_events_csv, simulate_branching,
                      write_events_csv)
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
    ok = EventSequence(ts, 2.0, tree_id=np.array([0, 0]), parent_idx=np.array([-1, 0]))
    assert ok.labeled and len(ok) == 2


def test_labels_must_come_together():
    with pytest.raises(ValueError):
        EventSequence(np.array([0.5]), 1.0, tree_id=np.array([0]), parent_idx=None)


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


def test_rejects_non_finite_horizon():
    for horizon in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            EventSequence(np.array([1.0]), horizon=horizon)
