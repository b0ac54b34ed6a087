import math
import warnings

import numpy as np
import pytest

from dphawkes import ConfigError, bin_events, ingest_timestamps


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
