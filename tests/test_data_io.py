"""CSV and config parsing: strictness, ordering, and round trips."""

import numpy as np
import pytest

from pdbpe import DataError, PipelineConfig, fit_pipeline
from pdbpe.data_io import (attach_labels, read_config_file, read_data_csv,
                           read_features_csv, read_labels_csv,
                           write_features_csv)
from synth import random_dataset


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_read_data_first_appearance_order_and_gaps(tmp_path):
    path = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "b,hr,0,1.5",
        "b,hr,2,2.5",
        "a,hr,0,0.25",
        "a,hr,1,0.5",
        "",
    ]))
    ds = read_data_csv(path)
    assert ds.ids == ("b", "a")
    b = ds.series[0]
    # Length is max(t)+1; the skipped timestep is unobserved and zero.
    assert b.length == 3
    assert b.mask[:, 0].tolist() == [True, False, True]
    assert b.values[:, 0].tolist() == [1.5, 0.0, 2.5]


def test_read_data_multichannel_union(tmp_path):
    path = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "a,hr,0,1.0",
        "a,spo2,0,2.0",
        "b,spo2,1,3.0",
        "b,hr,0,4.0",
        "",
    ]))
    ds = read_data_csv(path)
    assert ds.channels == ("hr", "spo2")
    b = ds.series[1]
    assert b.length == 2
    assert b.values[1, 1] == 3.0
    assert not b.mask[1, 0]


def test_read_data_missing_channel_for_series_rejected(tmp_path):
    path = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "a,hr,0,1.0",
        "a,spo2,0,2.0",
        "b,hr,0,4.0",
        "",
    ]))
    with pytest.raises(DataError, match="spo2"):
        read_data_csv(path)


@pytest.mark.parametrize("row,fragment", [
    ("a,hr,x,1.0", "integer"),
    ("a,hr,-1,1.0", ">= 0"),
    ("a,hr,16777216,1.0", "<= 16777215"),
    ("a,hr,10000000000000,1.0", "<= 16777215"),
    ("a,hr,0,oops", "number"),
    ("a,hr,0,nan", "finite"),
    ("a,hr,0", "4 fields"),
    (",hr,0,1.0", "empty"),
])
def test_read_data_bad_rows_are_line_numbered(tmp_path, row, fragment):
    path = _write(tmp_path / "d.csv",
                  "series_id,channel,t,value\n" + row + "\n")
    with pytest.raises(DataError, match=fragment) as err:
        read_data_csv(path)
    assert ":2" in str(err.value)


@pytest.mark.parametrize("reader,header", [
    (read_data_csv, "series_id,channel,t,value"),
    (read_labels_csv, "series_id,label"),
    (read_features_csv, "series_id,hr.original.S0"),
])
def test_malformed_csv_text_is_line_numbered(tmp_path, reader, header):
    # csv.reader refuses fields over 131,072 characters.
    n_fields = header.count(",") + 1
    good = ",".join(["a"] + ["0"] * (n_fields - 1))
    big = ",".join(["b"] + ["0"] * (n_fields - 2) + ["9" * 200_000])
    path = _write(tmp_path / "x.csv", f"{header}\n{good}\n{big}\n")
    with pytest.raises(DataError, match=r"x\.csv:3: malformed CSV: field "
                                        r"larger than field limit"):
        reader(path)


def test_line_numbers_count_physical_lines(tmp_path):
    # A quoted field may hold a newline; the bad row is still line 4.
    path = _write(tmp_path / "d.csv", 'series_id,channel,t,value\n'
                  '"a\nb",hr,0,1.0\na,hr,x,1.0\n')
    with pytest.raises(DataError, match=r"d\.csv:4: t must be an integer"):
        read_data_csv(path)


def test_read_data_duplicate_entry_rejected(tmp_path):
    path = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "a,hr,0,1.0",
        "a,hr,0,2.0",
        "",
    ]))
    with pytest.raises(DataError, match="duplicate"):
        read_data_csv(path)


def test_read_data_bad_header_rejected(tmp_path):
    path = _write(tmp_path / "d.csv", "sid,ch,t,v\na,hr,0,1\n")
    with pytest.raises(DataError, match="header"):
        read_data_csv(path)


def test_labels_round_trip_and_attach(tmp_path):
    path = _write(tmp_path / "l.csv", "\n".join([
        "series_id,label,group_id",
        "a,sick,p1",
        "b,healthy,",
        "",
    ]))
    labels = read_labels_csv(path)
    assert labels["a"].label == "sick"
    assert labels["a"].group_id == "p1"
    assert labels["b"].group_id is None

    data = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "a,hr,0,1.0",
        "b,hr,0,2.0",
        "c,hr,0,3.0",
        "",
    ]))
    ds = attach_labels(read_data_csv(data), labels)
    assert [ts.label for ts in ds] == ["sick", "healthy", None]
    assert ds.series[0].group_id == "p1"


def test_labels_duplicate_rejected(tmp_path):
    path = _write(tmp_path / "l.csv",
                  "series_id,label\na,x\na,y\n")
    with pytest.raises(DataError, match="duplicate"):
        read_labels_csv(path)


def test_feature_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, n_series=6, n_channels=1, length=40)
    _, matrix = fit_pipeline(ds, PipelineConfig(K=4, W=2))
    # Add awkward values that expose insufficient float formatting.
    matrix.values[0, 0] = 1.0 / 3.0
    matrix.values[1, 0] = 0.1 + 0.2
    path = tmp_path / "f.csv"
    write_features_csv(matrix, str(path))
    back = read_features_csv(str(path))
    assert back.ids == matrix.ids
    assert back.names == matrix.names
    assert np.array_equal(back.values, matrix.values)


def test_config_file_parsing(tmp_path):
    path = _write(tmp_path / "c.cfg", "\n".join([
        "# comment line",
        "K = 5",
        "W=4  # trailing comment",
        "variations = original, rcs",
        "",
    ]))
    cfg = read_config_file(path)
    assert cfg == {"K": "5", "W": "4", "variations": "original, rcs"}


def test_config_file_rejects_duplicates_and_bad_lines(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_config_file(_write(tmp_path / "a.cfg", "K=1\nK=2\n"))
    with pytest.raises(DataError, match="key = value"):
        read_config_file(_write(tmp_path / "b.cfg", "just some text\n"))
