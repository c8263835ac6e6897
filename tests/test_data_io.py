"""CSV and config parsing: strictness, ordering, and round trips."""

import csv
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import naive_csv
from pdbpe import DataError, PipelineConfig, fit_pipeline
from pdbpe import data_io
from pdbpe.data_io import (read_config_file, read_data_csv,
                           read_features_csv, read_labels_csv,
                           write_features_csv)
from pdbpe.features import FeatureMatrix
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


def test_total_samples_are_bounded_before_allocating(tmp_path):
    # Each series needs 2**24 samples; five of them exceed MAX_SAMPLES.
    last = data_io.MAX_T
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n" + "".join(
        f"s{i},hr,0,1\ns{i},hr,{last},2\n" for i in range(5)))
    with pytest.raises(DataError, match=r"d\.csv: the series need 83886080 "
                                        r"samples .* MAX_SAMPLES = 67108864"):
        read_data_csv(path)


def test_total_samples_bound_is_inclusive(tmp_path, monkeypatch):
    # Two series of lengths 3 and 4 over two channels need 14 samples.
    path = _write(tmp_path / "d.csv", "\n".join([
        "series_id,channel,t,value",
        "a,hr,2,1", "a,bp,0,1", "b,hr,3,1", "b,bp,0,1", ""]))
    monkeypatch.setattr(data_io, "MAX_SAMPLES", 14)
    assert [ts.length for ts in read_data_csv(path)] == [3, 4]
    monkeypatch.setattr(data_io, "MAX_SAMPLES", 13)
    with pytest.raises(DataError, match="need 14 samples"):
        read_data_csv(path)


_IDS = ["s0", "s1", "s2", " s1 ", "é", "系列", "a,b", 'q"x', "a\nb",
        "s\x00", "#c", "a\x1c"]
_CHANNELS = ["hr", "bp", " hr", "h\r"]
# Forms on which numpy's number rules and Python's could differ; some are
# valid, and both readers must agree on every one.
_EDGE_NUMBERS = ["\x1c3", "3\xa0", " 3", "\x0b3", "Infinity", "1E-400",
                 "+.5e+2", "00012", "-0", "3 4", "3\u01fe", "0" * 4300 + "3"]
_BAD_T = ["x", "-1", "16777216", "10000000000000", " 3 ", "+2", "1_0", "٣",
          "", "3.0", "9" * 40, *_EDGE_NUMBERS]
_BAD_V = ["oops", "nan", "inf", "-inf", "1e400", " 1.5 ", "-0.0", "",
          "1_0.5", "٣", "0x1", *_EDGE_NUMBERS]


def _field(rnd, text, quote_rate):
    """text as a CSV field: quoted when it must be, sometimes when not."""
    if any(c in text for c in ',"\r\n') or rnd.random() < quote_rate:
        return '"' + text.replace('"', '""') + '"'
    return text


def _random_data_csv(rnd):
    """Text of a data CSV, from clean to hostile."""
    hostile = rnd.choice([0.0, 0.0, 0.01, 0.03, 0.1])
    ids = _IDS[:3] if rnd.random() < 0.7 else _IDS
    ids = rnd.sample(ids, rnd.randint(1, len(ids)) if rnd.random() < 0.95 else 0)
    channels = _CHANNELS[:2] if rnd.random() < 0.7 else _CHANNELS
    channels = rnd.sample(channels, rnd.randint(1, 2))
    header = "series_id,channel,t,value"
    if rnd.random() < 0.1:
        header = rnd.choice([" series_id , channel,t,value",
                             "\ufeff" + header, "series_id,channel,t",
                             "sid,ch,t,v", ""])
    rows = []
    for sid in ids:
        for ch in channels:
            if rnd.random() < hostile:
                continue  # a missing channel
            for t in rnd.sample(range(30), rnd.randint(1, 12)):
                rows.append([sid, ch, str(t), repr(rnd.gauss(0, 3))])
    # A line end in a value is quoted, spans lines, and float() reads it.
    broken = rnd.choice([0.0, 0.0, 0.0, 0.05])
    for row in rows:
        if rnd.random() < broken:
            row[3] = rnd.choice(["{}\n", "\r\n{}", "{}\r"]).format(row[3])
    if rnd.random() < 0.3:
        rnd.shuffle(rows)
    for i in range(len(rows)):
        if rnd.random() >= hostile:
            continue
        kind = rnd.randrange(7)
        if kind == 0:
            rows[i][2] = rnd.choice(_BAD_T)
        elif kind == 1:
            rows[i][3] = rnd.choice(_BAD_V)
        elif kind == 2 and i:
            rows[i][:3] = rnd.choice(rows[:i])[:3]  # a duplicate
        elif kind == 3:
            rows[i][rnd.randrange(4)] = " " + rows[i][rnd.randrange(4)] + "\t"
        elif kind == 4:
            rows[i] = rows[i][:rnd.randint(0, 5)] + ["1"] * rnd.randint(0, 1)
        elif kind == 5:
            rows[i][rnd.randrange(4)] = "9" * (csv.field_size_limit() + 1)
        else:
            rows[i][0] = rows[i][0][:1] + "\x00"
    quote_rate = rnd.choice([0.0, 0.0, 0.01, 0.2])
    lines = [header] + [",".join(_field(rnd, f, quote_rate) for f in row)
                        for row in rows]
    for _ in range(rnd.randint(0, 3) if rnd.random() < 0.3 else 0):
        blank = "" if rnd.random() < 0.9 else rnd.choice(["  ", "\t"])
        lines.insert(rnd.randint(1, len(lines)), blank)
    ends = ["\n"]
    if rnd.random() < 0.2:
        ends = rnd.choice([["\r\n"], ["\n"] * 10 + ["\r\n", "\r"]])
    text = "".join(line + rnd.choice(ends) for line in lines)
    return text if rnd.random() < 0.9 else text.rstrip("\r\n")


def _outcome(reader, path):
    try:
        ds = reader(path)
    except DataError as exc:
        return str(exc)
    return [(ts.id, ts.channels, ts.values.tobytes(), ts.values.shape,
             ts.mask.tobytes()) for ts in ds]


def test_read_data_matches_naive_reader(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    outcomes = []

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([1, 40, 200, 2**18]),
           max_samples=st.sampled_from([100, 2**26, 2**26, 2**26]))
    def check(seed, block, max_samples):
        text = _random_data_csv(random.Random(seed))
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(data_io, "BLOCK_CHARS", block)
        monkeypatch.setattr(data_io, "MAX_SAMPLES", max_samples)
        expected = _outcome(naive_csv.read_data_csv, str(path))
        assert _outcome(read_data_csv, str(path)) == expected
        outcomes.append(expected)

    check()
    # Both kinds of outcome are well represented.
    errors = [o for o in outcomes if isinstance(o, str)]
    assert 40 <= len(errors) <= 160


def test_first_quote_after_the_first_block(tmp_path, monkeypatch):
    # np.loadtxt parses the block with the quote as it does the others, and
    # csv.reader, which names the bad last row, numbers it right.
    rows = [f"s{i // 10},hr,{i % 10},{i}" for i in range(60)]
    rows[40] = '"s4",hr,0,40'
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n"
                  + "\n".join(rows) + "\ns5,hr,x,1\n")
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 64)
    with pytest.raises(DataError, match=r"d\.csv:62: t must be an integer"):
        read_data_csv(path)
    assert _outcome(naive_csv.read_data_csv, path) == _outcome(read_data_csv, path)


def _count_records_calls(monkeypatch, limit=None):
    """The calls made to data_io._records from now on; one past limit
    fails."""
    calls = []
    records = data_io._records

    def counted(*args):
        calls.append(args)
        assert limit is None or len(calls) <= limit, "csv.reader was used"
        return records(*args)

    monkeypatch.setattr(data_io, "_records", counted)
    return calls


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                         ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_plain_blocks_never_reach_csv_reader(tmp_path, monkeypatch, quoted,
                                             end):
    sid = '"s{}"' if quoted else "s{}"
    rows = [f"{sid.format(i // 10)},hr,{i % 10},{i / 7!r}{end}"
            for i in range(60)]
    rows[30:30] = [end, end]
    path = tmp_path / "d.csv"
    path.write_bytes(("series_id,channel,t,value" + end + "".join(rows))
                     .encode("utf-8"))
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 64)
    blocks = []
    parse = data_io._Columns.parse
    monkeypatch.setattr(data_io._Columns, "parse",
                        lambda self, *a: blocks.append(a) or parse(self, *a))
    _count_records_calls(monkeypatch, limit=1)  # the header only
    got = _outcome(read_data_csv, str(path))
    assert len(blocks) >= 10
    assert got == _outcome(naive_csv.read_data_csv, str(path))


def test_a_form_only_python_reads_takes_the_fallback(tmp_path, monkeypatch):
    rows = [f"s{i // 10},hr,{i % 10},{i}" for i in range(40)]
    rows[25] = "s2,hr,1_0,25"  # int() reads t = 10; np.loadtxt refuses it
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n"
                  + "\n".join(rows) + "\n")
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 64)
    calls = _count_records_calls(monkeypatch)
    got = _outcome(read_data_csv, path)
    assert len(calls) == 2
    assert got == _outcome(naive_csv.read_data_csv, path)
    assert read_data_csv(path).series[2].values[10, 0] == 25


@pytest.mark.parametrize("row", ["s2,hr,1_0,25", '"s\n2",hr,5,25'],
                         ids=["1_0", "quoted-line-break"])
def test_a_block_numpy_refuses_alone_goes_to_csv_reader(tmp_path, monkeypatch,
                                                        row):
    # csv.reader reads that block, and no further than the record it
    # leaves open; np.loadtxt parses the next block again.
    rows = [f"s{i // 10},hr,{i % 10},{i}" for i in range(40)]
    rows[25] = row
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n"
                  + "\n".join(rows) + "\n")
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 64)
    parsed = []
    parse = data_io._Columns.parse
    monkeypatch.setattr(data_io._Columns, "parse", lambda self, *a:
                        parsed.append(parse(self, *a)) or parsed[-1])
    calls = _count_records_calls(monkeypatch)
    got = _outcome(read_data_csv, path)
    assert len(calls) == 2 and parsed.count(False) == 1
    after = parsed[parsed.index(False) + 1:]
    assert after and all(after)
    assert got == _outcome(naive_csv.read_data_csv, path)


@pytest.mark.parametrize("block", [1, 16, 64, 2**18])
def test_a_quoted_line_end_in_a_value_is_read_as_csv_reader_reads_it(
        tmp_path, monkeypatch, block):
    # float() reads "20\n" as 20.0. np.loadtxt closes a quote left open at
    # the end of its input, so a block that ends inside the quote must not
    # be read as a whole record.
    rows = [f"s{i // 10},hr,{i % 10},{i}\n" for i in range(60)]
    rows[20] = 's2,hr,0,"20\n"\n'
    path = _write(tmp_path / "d.csv",
                  "series_id,channel,t,value\n" + "".join(rows))
    monkeypatch.setattr(data_io, "BLOCK_CHARS", block)
    got = _outcome(read_data_csv, path)
    assert got == _outcome(naive_csv.read_data_csv, path)
    assert read_data_csv(path).series[2].values[0, 0] == 20


def test_an_int_read_through_a_float_falls_back(tmp_path, monkeypatch):
    # Some numpy releases read t = "3.7" as 3 with only a DeprecationWarning.
    loadtxt = np.loadtxt

    def lenient(lines, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is "
                      "deprecated.", DeprecationWarning)
        return loadtxt([line.replace(",3.7,", ",3,") for line in lines],
                       **kwargs)

    monkeypatch.setattr(np, "loadtxt", lenient)
    path = _write(tmp_path / "d.csv",
                  "series_id,channel,t,value\na,hr,0,1\na,hr,3.7,2\n")
    with pytest.raises(DataError, match=r"d\.csv:3: t must be an integer"):
        read_data_csv(path)


@pytest.mark.parametrize("text", [
    "series_id,channel,t,value\na,hr,0,1\n\n\n\na,hr,1,2\n\n",
    "series_id,channel,t,value\n\n\n"])
def test_a_block_of_blank_lines_reads_without_warnings(tmp_path, monkeypatch,
                                                       text):
    path = _write(tmp_path / "d.csv", text)
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 1)  # one line per block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(read_data_csv, path)
    assert got == _outcome(naive_csv.read_data_csv, path)


# numpy's integer parser reads U+01FE as a digit and takes any number of
# digits; int() refuses both.
@pytest.mark.parametrize("t", ["3\u01fe", "0" * 4300 + "3"],
                         ids=["letter", "4301-digits"])
def test_a_t_that_int_refuses_is_refused(tmp_path, t):
    path = tmp_path / "d.csv"
    path.write_bytes(f"series_id,channel,t,value\na,hr,0,1\na,hr,{t},2\n"
                     .encode("utf-8"))
    with pytest.raises(DataError, match=r"d\.csv:3: t must be an integer"):
        read_data_csv(str(path))


def test_rows_whose_widths_add_up_are_still_line_numbered(tmp_path):
    # 3 + 5 fields fill two 4-field rows; the short row is the error.
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n"
                  "a,hr,0,1\na,hr,1\na,hr,2,1,9\n")
    with pytest.raises(DataError, match=r"d\.csv:3: expected 4 fields, got 3"):
        read_data_csv(path)


def test_duplicate_in_a_later_block_comes_before_later_errors(tmp_path,
                                                              monkeypatch):
    path = _write(tmp_path / "d.csv", "series_id,channel,t,value\n"
                  + "".join(f"a,hr,{t},1\n" for t in range(20))
                  + "a,hr,3,2\n" + "a,hr,x,1\n")
    monkeypatch.setattr(data_io, "BLOCK_CHARS", 32)
    with pytest.raises(DataError, match=r"d\.csv:22: duplicate entry for "
                                        r"series 'a' channel 'hr' t=3"):
        read_data_csv(path)


@pytest.mark.parametrize("n_cols", [0, 2])
def test_feature_csv_quotes_carriage_returns(tmp_path, n_cols):
    ids = ("a\rb", "a\r\nb", "\r", "plain")
    names = ("h\r.original.S0", "c1")[:n_cols]
    values = np.arange(len(ids) * n_cols, dtype=float)
    values = values.reshape(len(ids), n_cols)
    path = tmp_path / "f.csv"
    write_features_csv(FeatureMatrix(ids=ids, names=names, values=values),
                       str(path))
    back = read_features_csv(str(path))
    assert back.ids == ids and back.names == names
    assert back.values.tobytes() == values.tobytes()
    # The bytes Python 3.13's csv.writer gives, on every version.
    write_features_csv(FeatureMatrix(ids=("a\rb",), names=("c0",),
                                     values=np.ones((1, 1))), str(path))
    assert path.read_bytes() == b'series_id,c0\n"a\rb",1\n'


def _reference_features_csv(matrix, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", *matrix.names])
        for i, sid in enumerate(matrix.ids):
            writer.writerow([sid] + [f"{v:.17g}" for v in matrix.values[i]])


@pytest.mark.parametrize("n_cols", [0, 1, 4])
def test_write_features_csv_bytes_match_csv_writer(tmp_path, n_cols):
    ids = ("plain", "a,b", 'say "hi"', "two\nlines", "", " pad ", "é")
    pool = [-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, -2.5, 0.0, 123456789.0]
    values = np.array([[pool[(i + j) % len(pool)] for j in range(n_cols)]
                       for i in range(len(ids))]).reshape(len(ids), n_cols)
    names = tuple(f"c{j}" for j in range(n_cols - 1)) + ("x,y",) * (n_cols > 0)
    matrix = FeatureMatrix(ids=ids, names=names, values=values)
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_features_csv(matrix, str(ours))
    _reference_features_csv(matrix, str(ref))
    assert ours.read_bytes() == ref.read_bytes()
    back = read_features_csv(str(ours))
    assert back.ids == ids and back.names == names
    assert back.values.tobytes() == values.tobytes()


def test_read_data_bad_header_rejected(tmp_path):
    path = _write(tmp_path / "d.csv", "sid,ch,t,v\na,hr,0,1\n")
    with pytest.raises(DataError, match="header"):
        read_data_csv(path)


def _read_back(reader, path):
    """What reader gives for path, in a form == can compare."""
    out = reader(path)
    if reader is read_data_csv:
        return [(ts.id, ts.channels, ts.values.tolist(), ts.mask.tolist())
                for ts in out]
    if reader is read_features_csv:
        return out.ids, out.names, out.values.tolist()
    return out


# Spreadsheet tools often begin a UTF-8 CSV with a byte-order mark.
@pytest.mark.parametrize("reader,text", [
    (read_data_csv, "series_id,channel,t,value\na,hr,0,1.5\na,hr,1,2\n"),
    # A quoted field takes the csv.reader path.
    (read_data_csv, 'series_id,channel,t,value\n"a,b",hr,0,1.5\n'),
    (read_labels_csv, "series_id,label,group_id\na,x,g\n"),
    (read_features_csv, "series_id,v.original.S0\na,0.5\n"),
    (read_config_file, "K = 5\nW=4\n")],
    ids=["data-fast-split", "data-csv-reader", "labels", "features",
         "config"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, reader, text):
    plain = tmp_path / "plain"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert _read_back(reader, str(marked)) == _read_back(reader, str(plain))


@pytest.mark.parametrize("reader,data", [
    (read_data_csv, b"series_id,channel,t,value\na,hr,0,1\na,hr,1,\xff\n"),
    (read_labels_csv, b"series_id,label\na,\xff\n"),
    (read_features_csv, b"series_id,v.original.S0\n\xff,0.5\n"),
    (read_config_file, b"K = 5\nW = \xff\n")],
    ids=["data", "labels", "features", "config"])
def test_bytes_that_are_not_utf8_name_the_file(tmp_path, reader, data):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    with pytest.raises(DataError, match=r"in\.txt: not UTF-8 text: .*0xff"):
        reader(str(path))


def test_a_byte_order_mark_after_the_start_stays_data(tmp_path):
    twice = tmp_path / "twice.csv"
    twice.write_text("\ufeff\ufeffseries_id,channel,t,value\na,hr,0,1\n",
                     encoding="utf-8")
    with pytest.raises(DataError, match=re.escape("['\\ufeffseries_id'")):
        read_data_csv(str(twice))
    data = tmp_path / "d.csv"
    data.write_text("series_id,channel,t,value\n\ufeffa,hr,0,1\n",
                    encoding="utf-8")
    assert read_data_csv(str(data)).ids == ("\ufeffa",)
    labels = tmp_path / "l.csv"
    labels.write_text("series_id,label\na,\ufeffx\n", encoding="utf-8")
    assert read_labels_csv(str(labels))["a"].label == "\ufeffx"
    config = tmp_path / "c.cfg"
    config.write_text("W=4\n\ufeffK=5\n", encoding="utf-8")
    assert read_config_file(str(config)) == {"W": "4", "\ufeffK": "5"}


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
    ds = read_data_csv(data, path)
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


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_config_file_line_ends_read_alike(tmp_path, end):
    text = "# comment\nK = 5\n\nW=4  # trailing\n"
    path = _write(tmp_path / "c.cfg", text.replace("\n", end))
    assert read_config_file(path) == read_config_file(
        _write(tmp_path / "lf.cfg", text))
    path = _write(tmp_path / "d.cfg", f"K = 5{end}{end}oops{end}")
    with pytest.raises(DataError, match=r"d\.cfg:3: expected key = value"):
        read_config_file(path)


def test_config_file_rejects_duplicates_and_bad_lines(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        read_config_file(_write(tmp_path / "a.cfg", "K=1\nK=2\n"))
    with pytest.raises(DataError, match="key = value"):
        read_config_file(_write(tmp_path / "b.cfg", "just some text\n"))
