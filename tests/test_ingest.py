import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dphawkes import ConfigError, bin_events, ingest_timestamps
from dphawkes import ingest as ingest_module


def test_scale_and_shift(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("100\n160\n220\n")
    seq = ingest_timestamps(path, time_unit_scale=1.0 / 60.0)
    np.testing.assert_allclose(seq.timestamps, [0.0, 1.0, 2.0])
    assert seq.horizon == pytest.approx(2.0)


def test_header_skipped(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp\n5\n8\n")
    seq = ingest_timestamps(path)
    np.testing.assert_allclose(seq.timestamps, [0.0, 3.0])


def test_unsorted_warns_and_sorts(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("5\n2\n9\n")
    with pytest.warns(UserWarning, match="not sorted"):
        seq = ingest_timestamps(path)
    np.testing.assert_allclose(seq.timestamps, [0.0, 3.0, 7.0])


def test_duplicates_warn_and_drop(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1\n1\n4\n")
    with pytest.warns(UserWarning, match="duplicate"):
        seq = ingest_timestamps(path)
    assert len(seq) == 2


def test_bad_rows_reported_with_line_numbers(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("1\n2\nbroken\n4\nworse\n")
    with pytest.raises(ValueError, match=r"lines 3, 5"):
        ingest_timestamps(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no timestamps"):
        ingest_timestamps(path)


def test_extra_columns_use_first_field(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("10,fire\n20,traffic\n")
    seq = ingest_timestamps(path)
    np.testing.assert_allclose(seq.timestamps, [0.0, 10.0])


def test_single_event_fails_only_at_binning(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("42\n")
    seq = ingest_timestamps(path)
    assert len(seq) == 1 and seq.horizon == 0.0
    with pytest.raises(ValueError):
        bin_events(seq, 1.0)


def test_non_finite_scale_is_config_error(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("100\n160\n")
    for scale in (math.inf, math.nan, 0.0):
        with pytest.raises(ConfigError, match="time_unit_scale"):
            ingest_timestamps(path, time_unit_scale=scale)


def test_non_finite_scaled_span_names_file_and_scale(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0\n5e9\n1e10\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(ValueError, match=r"raw\.csv: .*span 1e\+10.*scale 1e\+300"):
            ingest_timestamps(path, time_unit_scale=1e300)


def test_sequence_refusals_name_the_file(tmp_path):
    # distinct raw times that the scale maps onto one float
    path = tmp_path / "raw.csv"
    path.write_text("0\n1\n1.2\n")
    with pytest.raises(ValueError, match=r"raw\.csv: timestamps must be strictly increasing"):
        ingest_timestamps(path, time_unit_scale=5e-324)


def test_header_only_on_line_one(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("5\ntimestamp\n8\n")
    with pytest.raises(ValueError, match=r"raw\.csv.*lines 2$"):
        ingest_timestamps(path)
    path.write_text("timestamp\nunit\n8\n")
    with pytest.raises(ValueError, match=r"lines 2$"):
        ingest_timestamps(path)


def test_extra_columns_may_vary_by_row_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes(b"time,kind,zone\r\n10,fire\r\n\r\n20\r\n\n 30 ,a,b,c\r\n")
    seq = ingest_timestamps(path)
    np.testing.assert_array_equal(seq.timestamps, [0.0, 10.0, 20.0])


def test_bad_rows_beyond_ten_are_counted(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp\n1\n" + "x\n" * 13 + "2\n")
    with pytest.raises(ValueError, match=r"lines 3, 4, 5, 6, 7, 8, 9, 10, 11, 12 \(\+3 more\)"):
        ingest_timestamps(path)


@pytest.mark.parametrize("rows, lines", [(["1", "nan", "3", "7"], "2"),
                                         (["t", "1", "inf", "3", "-inf"], "3, 5"),
                                         (["NaN", "2"], "1")])
def test_non_finite_timestamps_refused_with_line_numbers(tmp_path, rows, lines):
    path = tmp_path / "raw.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"raw\.csv: .*non-finite.* lines {lines}$"):
        ingest_timestamps(path)


@pytest.mark.parametrize("text", ["ts\n1.5\n2_0.5\n", "ts\n1.5\n٢.5\n"])  # Arabic-Indic 2
def test_fields_only_python_reads_are_named_by_line(tmp_path, text):
    path = tmp_path / "raw.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=r"unparsable or non-finite timestamps at lines 3$"):
        ingest_timestamps(path)


def test_headerless_first_row_is_read_from_byte_0(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("5.25\n7.5\n1234567.875\n")  # the file's tail is all digits
    np.testing.assert_array_equal(ingest_timestamps(path).timestamps, [0.0, 2.25, 1234562.625])


@pytest.mark.parametrize("text", ["5\n", "5"])
def test_files_under_8_bytes_hold_one_event(tmp_path, text):
    path = tmp_path / "raw.csv"
    path.write_text(text)
    seq = ingest_timestamps(path)
    assert seq.timestamps.tolist() == [0.0] and seq.horizon == 0.0
    with pytest.raises(ValueError):
        bin_events(seq, 1.0)


def _loadtxt_only():
    return mock.patch.object(ingest_module, "_first_fields", lambda data: None)


def _outcome(path):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seq = ingest_timestamps(path, 1.0 / 60.0)
    except ValueError as exc:
        return str(exc)
    return seq.timestamps.tobytes(), seq.horizon, [str(w.message) for w in caught]


def test_benchmark_raw_log_is_read_with_no_fallback(tmp_path):
    rng = np.random.default_rng(9)
    us = 1_600_000_000 * 10**6 + np.cumsum(rng.integers(1, 10**8, 50_000))
    rows = np.insert(us, rng.integers(0, us.size, 100), us[rng.integers(0, us.size, 100)])
    rows = np.concatenate([rows[:1000], rows[20_000:22_000], rows[1000:20_000], rows[22_000:]])
    path = tmp_path / "raw.csv"
    path.write_text("timestamp_unix\n" + "".join(f"{v // 10**6}.{v % 10**6:06d}\n"
                                                 for v in rows.tolist()))
    with _loadtxt_only():
        expected = _outcome(path)
    with mock.patch.object(ingest_module, "load_csv_rows", side_effect=AssertionError):
        got = _outcome(path)
    assert got == expected
    assert any("not sorted" in w for w in got[2]) and any("duplicate" in w for w in got[2])


_RAW_FIELDS = st.one_of(
    st.floats(0.0, 1e12).map("{:.17g}".format),
    st.integers(0, 10**12).map(str),
    st.decimals(0, 10**10, places=6).map(str),
    st.sampled_from(["", " 5", "5 ", "+5", "-5", "1e3", "nan", "inf", ".5", "5.", "1.2.3", "x"]),
    st.text(st.sampled_from("0123456789.,+-e x\r\t"), max_size=6))


@st.composite
def raw_logs(draw):
    """Drawn raw logs: a header or none, first fields of the grammar and beyond
    it, varying extra columns, blank lines, \\n or \\r\\n line ends."""
    lines = [draw(st.sampled_from(["timestamp", "t,kind", "1.5"]))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        extra = draw(st.lists(st.text(st.sampled_from("ab 1,."), max_size=3), max_size=2))
        lines += [""] * draw(st.integers(0, 1)) + [",".join([draw(_RAW_FIELDS), *extra])]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.removesuffix(ends[-1]) if lines and draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(raw_logs())
def test_raw_log_fast_path_reads_as_the_loadtxt_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    path.write_bytes(text.encode())
    with _loadtxt_only():
        expected = _outcome(path)
    assert _outcome(path) == expected


@pytest.mark.parametrize("text", [
    "5\r,a\n6\n", "5,a\rb\n6\n", "5\n\r\n6\n", "5\r", "5\n\r", "1.5\r\n2.5", " 5\n", "5 \n",
    "\t5\n", "5\t\n", "5\x00\n", ",5\n", ".5\n", "5.\n", "5..5\n", "0.1,0.2\n0.3\n",
    "t\n12345678901234567\n1\n", "t\n0.000000000000000000001\n1\n", "5,\xff\n6\n"])
def test_raw_log_edge_texts_read_as_the_loadtxt_path(tmp_path, text):
    path = tmp_path / "raw.csv"
    path.write_bytes(text.encode("latin-1"))
    with _loadtxt_only():
        expected = _outcome(path)
    assert _outcome(path) == expected
