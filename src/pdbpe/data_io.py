"""CSV and config-file input/output.

Data CSV is long format with header series_id,channel,t,value; a missing
(series, channel, t) row marks that entry unobserved (mask False, value 0).
Labels CSV is series_id,label with an optional third group_id column;
read_data_csv attaches its rows to the data file's series as it builds them.
Feature CSVs print values with 17 significant digits so they round-trip
bit-exactly.

A data CSV is read in blocks of whole lines, about BLOCK_CHARS characters
each, and every block becomes coded columns (series code, channel code, t,
value) without a list or dict per row. One np.loadtxt call (numpy's C
tokenizer) parses a block with no '"', "\r" or NUL and no line longer than
csv.field_size_limit(), where csv.reader finds the same fields. It reads
value as float() does, and t as int() does in a block of ASCII lines of at
most 640 characters; in any other block int() reads t. A block that breaks
these rules (every block of a CRLF file does), that loadtxt cannot parse
(such as t = "1_0") or that holds an invalid record goes through csv.reader,
which reports the first bad record. As a quoted field may span lines,
csv.reader reads the rest of the file from the first block with a '"'.

Bad rows are found by whole-column checks and then reported as the first
failing row in file order. Memory follows the number of rows and samples,
not the length of the file's text.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .core import Dataset, TimeSeries
from .errors import DataError
from .features import FeatureMatrix

DATA_HEADER = ["series_id", "channel", "t", "value"]
# Largest time index accepted; a series allocates 1 + max(t) samples.
MAX_T = 2**24 - 1
# Largest number of samples a data CSV may need: (1 + max t) x channels,
# summed over series. One series of four channels at MAX_T still fits.
MAX_SAMPLES = 2**26
# Characters of whole lines read per block of a data CSV.
BLOCK_CHARS = 2**18


@contextlib.contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """path opened as UTF-8 text, line ends kept and a leading byte-order
    mark skipped; bytes that are not UTF-8 are a DataError naming path."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _records(path: str, lines: Iterable[str],
             start: int = 0) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each CSV record in lines, numbered by the
    physical line it ends on, counting from start; text that is not valid
    CSV is a DataError."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield start + reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{start + reader.line_num}: malformed CSV: "
                        f"{exc}") from None


def _data_blocks(path: str, lines: Iterable[str],
                 start: int) -> Iterator[tuple[np.ndarray, list[str], str | None]]:
    """(line numbers, fields, error) of each block of data records that
    csv.reader reads from lines, which follow line start: 4 fields per
    record, blank records dropped. A non-None error is the message for the
    record right after the block; no block follows it."""
    numbers: list[int] = []
    fields: list[str] = []
    error = None
    try:
        for lineno, row in _records(path, lines, start):
            if not row:
                continue
            if len(row) != 4:
                error = f"{path}:{lineno}: expected 4 fields, got {len(row)}"
                break
            numbers.append(lineno)
            fields += row
            # About as many rows as a block of 64-character lines.
            if 64 * len(numbers) >= BLOCK_CHARS:
                yield np.array(numbers, dtype=np.int64), fields, None
                numbers, fields = [], []
    except DataError as exc:
        error = str(exc)
    yield np.array(numbers, dtype=np.int64), fields, error


def _row_error(sid: str, channel: str, t_raw: str, v_raw: str) -> str | None:
    """Why a data record with these stripped fields is invalid, or None."""
    if not sid or not channel:
        return "empty series_id or channel"
    try:
        t = int(t_raw)
    except ValueError:
        return f"t must be an integer, got {t_raw!r}"
    if not 0 <= t <= MAX_T:
        bound = ">= 0" if t < 0 else f"<= {MAX_T}"
        return f"t must be {bound}, got {t}"
    try:
        value = float(v_raw)
    except ValueError:
        return f"value must be a number, got {v_raw!r}"
    if not math.isfinite(value):
        return f"value must be finite, got {v_raw!r}"
    return None


class _Columns:
    """The valid data records read so far as one tuple of arrays per block:
    series and channel codes (first-appearance order), t and value."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.series: dict[str, int] = {}
        self.channels: dict[str, int] = {}
        self.blocks: list[tuple[Sequence[int], np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]] = []

    def parse(self, lines: list[str], start: int) -> bool:
        """Code the records of lines, which follow line start, with one
        np.loadtxt call; False, with nothing coded, when the block needs
        csv.reader, loadtxt cannot parse it or a record is invalid."""
        text, width = "".join(lines), max(map(len, lines))
        if any(c in text for c in '"\r\0') or width > csv.field_size_limit():
            return False
        numbers: Sequence[int] = range(start + 1, start + len(lines) + 1)
        if "\n" in lines:  # neither reader gives a record for a blank line
            numbers = np.array([k for k, line in zip(numbers, lines)
                                if line != "\n"], dtype=np.int64)
        if not len(numbers):
            return True  # loadtxt warns on a block with no data
        # numpy reads some non-ASCII letters, and over 640 digits, as an int.
        t_type = "O" if not text.isascii() or width > 640 else "i8"
        try:
            with warnings.catch_warnings():
                # Some numpy releases read t = "3.7" as 3 and only warn.
                warnings.simplefilter("error", DeprecationWarning)
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                                  dtype=[("s", "O"), ("c", "O"), ("t", t_type),
                                         ("v", "f8")])
            t = rows["t"].astype(np.int64)
        except (ValueError, OverflowError, DeprecationWarning):
            return False
        # Copied, so that no view keeps the block's str objects alive.
        return rows.size == len(numbers) and self._extend(
            numbers, rows["s"], rows["c"], t, rows["v"].copy())

    def add(self, numbers: Sequence[int], fields: list[str]) -> str | None:
        """Code the records csv.reader gave for a block. At its first bad
        record, code only those before it and return its error message."""
        n = len(numbers)
        if not n:
            return None
        sid, channel, t_raw, v_raw = np.array(
            [f.strip() for f in fields], dtype=object).reshape(n, 4).T
        with contextlib.suppress(ValueError, OverflowError):  # int(), float()
            t = np.fromiter(map(int, t_raw), np.int64, n)
            value = np.fromiter(map(float, v_raw), np.float64, n)
            if self._extend(numbers, sid, channel, t, value):
                return None
        for i, row in enumerate(zip(sid, channel, t_raw, v_raw)):
            message = _row_error(*row)
            if message:
                break
        self.add(numbers[:i], fields[:4 * i])
        return f"{self.path}:{numbers[i]}: {message}"

    def _extend(self, numbers: Sequence[int], sid: np.ndarray,
                channel: np.ndarray, t: np.ndarray, value: np.ndarray) -> bool:
        """Code a block's records from its raw names (object arrays), t and
        value; False, with nothing coded, when a record is invalid. Names
        are stripped and looked up once per run of equal raw strings, which
        is once per series and channel in a file grouped by them."""
        if not (t.min() >= 0 and t.max() <= MAX_T
                and np.isfinite(value).all()):
            return False
        runs = []
        for names in (sid, channel):
            starts = np.flatnonzero(np.r_[True, names[1:] != names[:-1]])
            keys = [name.strip() for name in names[starts]]
            if "" in keys:
                return False
            runs.append((keys, np.diff(starts, append=names.size)))
        codes = [np.repeat(np.array([index.setdefault(key, len(index))
                                     for key in keys], np.int32), lengths)
                 for (keys, lengths), index in zip(runs, (self.series,
                                                          self.channels))]
        self.blocks.append((numbers, *codes, t.astype(np.int32), value))
        return True

    def fail(self, message: str | None) -> NoReturn:
        """Raise the first record, in file order, that repeats an earlier
        record's (series, channel, t): it comes before the error of
        message, which is raised when there is none."""
        if self.blocks:
            s, c, t = (np.concatenate([b[k] for b in self.blocks])
                       for k in (1, 2, 3))
            order = np.lexsort((t, c, s))  # stable: repeats follow firsts
            a, b = order[:-1], order[1:]
            repeats = b[(s[a] == s[b]) & (c[a] == c[b]) & (t[a] == t[b])]
            if repeats.size:
                i = int(repeats.min())
                lineno = next(itertools.islice(itertools.chain.from_iterable(
                    b[0] for b in self.blocks), i, None))
                raise DataError(
                    f"{self.path}:{lineno}: duplicate entry for series "
                    f"{list(self.series)[s[i]]!r} channel "
                    f"{list(self.channels)[c[i]]!r} t={int(t[i])}")
        raise DataError(message)

    def dataset(self, labels_path: str | None) -> Dataset:
        """The series, each (1 + max t) samples long, as slices of one
        samples x channels block, labelled from labels_path once every data
        check has passed."""
        ids, channels = list(self.series), tuple(self.channels)
        present = np.zeros((len(ids), len(channels)), dtype=bool)
        last = np.zeros(len(ids), dtype=np.int64)
        rows = 0
        for _, s, c, t, _ in self.blocks:
            present[s, c] = True
            # Matching dtypes keep ufunc.at off numpy's generic loop.
            np.maximum.at(last, s.astype(np.intp), t.astype(np.int64))
            rows += s.size
        missing = np.argwhere(~present)
        if missing.size:
            s, c = missing[0]
            self.fail(f"{self.path}: series {ids[s]!r} has no rows for "
                      f"channel {channels[c]!r}")
        lengths = last + 1
        total = int(lengths.sum())
        if total * len(channels) > MAX_SAMPLES:
            self.fail(f"{self.path}: the series need {total * len(channels)} "
                      f"samples ((1 + max t) x {len(channels)} channels, "
                      f"summed over series), over the limit MAX_SAMPLES = "
                      f"{MAX_SAMPLES}")
        offsets = np.cumsum(lengths) - lengths
        values = np.zeros((total, len(channels)))
        mask = np.zeros((total, len(channels)), dtype=bool)
        for _, s, c, t, v in self.blocks:
            at = offsets[s] + t
            values[at, c] = v
            mask[at, c] = True
        if np.count_nonzero(mask) != rows:
            self.fail(None)
        self.blocks.clear()
        labels = read_labels_csv(labels_path) if labels_path else {}
        return Dataset(series=tuple(
            TimeSeries(id=sid, channels=channels, values=values[o:o + n],
                       mask=mask[o:o + n], group_id=rec and rec.group_id,
                       label=rec and rec.label)
            for sid, o, n, rec in zip(ids, offsets.tolist(), lengths.tolist(),
                                      map(labels.get, ids))))


def read_data_csv(path: str, labels_path: str | None = None) -> Dataset:
    """Read a long-format data CSV into a Dataset.

    Series appear in first-appearance order; the channel list is the
    first-appearance union over the whole file and every series must carry
    at least one row for every channel. Each series' length is max(t) + 1,
    and all series together may need at most MAX_SAMPLES samples.

    With labels_path, each series carries the label and group id of its row
    in that labels CSV (read_labels_csv), which is read only after the data
    has passed all of its checks. Rows for ids the data lacks are ignored;
    a series without a row keeps None for both.
    """
    with open_text(path) as fh:
        start, header = next(_records(path, fh), (1, None))
        if header is None:
            raise DataError(f"{path}: empty file, expected header "
                            f"{','.join(DATA_HEADER)}")
        if [h.strip() for h in header] != DATA_HEADER:
            raise DataError(f"{path}:1: bad header {header!r}, expected "
                            f"{','.join(DATA_HEADER)}")
        columns = _Columns(path)
        while lines := fh.readlines(BLOCK_CHARS):
            if not columns.parse(lines, start):
                # A quoted field may span lines: csv.reader reads to the end.
                rest = fh if '"' in "".join(lines) else ()
                for numbers, fields, error in _data_blocks(
                        path, itertools.chain(lines, rest), start):
                    message = columns.add(numbers, fields) or error
                    if message:
                        columns.fail(message)
            start += len(lines)
    return columns.dataset(labels_path)


@dataclass(frozen=True)
class LabelRecord:
    label: str
    group_id: str | None = None


def read_labels_csv(path: str) -> dict[str, LabelRecord]:
    """Read series_id,label[,group_id] keyed by series id."""
    out: dict[str, LabelRecord] = {}
    with open_text(path) as fh:
        records = _records(path, fh)
        _, header = next(records, (1, None))
        if header is None:
            raise DataError(f"{path}: empty labels file")
        header = [h.strip() for h in header]
        if header not in (["series_id", "label"], ["series_id", "label", "group_id"]):
            raise DataError(f"{path}:1: bad header {header!r}, expected "
                            "series_id,label[,group_id]")
        has_group = len(header) == 3
        for lineno, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"got {len(row)}")
            sid = row[0].strip()
            label = row[1].strip()
            if not sid:
                raise DataError(f"{path}:{lineno}: empty series_id")
            if not label:
                raise DataError(f"{path}:{lineno}: empty label")
            if sid in out:
                raise DataError(f"{path}:{lineno}: duplicate label for series {sid!r}")
            group = row[2].strip() if has_group else None
            out[sid] = LabelRecord(label=label, group_id=group or None)
    return out


def csv_field(text: str) -> str:
    """text as one field of a written CSV: quoted, with its quotes doubled,
    when it holds ",", '"', "\n" or "\r". csv.writer quotes a "\r" only
    from Python 3.13 on; this does on every version."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_row(fields: Sequence[str]) -> str:
    """One CSV record and its "\n" line end, as csv.writer writes it on
    Python 3.13: a lone empty field is written "" so as not to be a blank
    line."""
    return (",".join(map(csv_field, fields)) or '""') + "\n"


def write_features_csv(matrix: FeatureMatrix, path: str) -> None:
    """Write a feature matrix with 17-significant-digit values, formatting
    each row with one string."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_row(["series_id", *matrix.names]))
        if not matrix.names:
            fh.writelines(csv_row([sid]) for sid in matrix.ids)
            return
        row = ",%.17g" * len(matrix.names) + "\n"
        fh.writelines(csv_field(sid) + row % tuple(values)
                      for sid, values in zip(matrix.ids, matrix.values.tolist()))


def read_features_csv(path: str) -> FeatureMatrix:
    """Read a feature CSV as write_features_csv writes it. A value that is
    not a finite number is a DataError naming its line."""
    with open_text(path) as fh:
        records = _records(path, fh)
        _, header = next(records, (1, None))
        if not header or header[0] != "series_id":
            raise DataError(f"{path}: not a feature CSV (missing series_id header)")
        names = tuple(header[1:])
        ids: list[str] = []
        rows: list[list[float]] = []
        for lineno, row in records:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, "
                                f"got {len(row)}")
            ids.append(row[0])
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad value: {exc}") from None
            if not all(map(math.isfinite, values)):
                raw = next(v for v, x in zip(row[1:], values)
                           if not math.isfinite(x))
                raise DataError(f"{path}:{lineno}: value must be finite, "
                                f"got {raw!r}")
            rows.append(values)
    values = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return FeatureMatrix(ids=tuple(ids), names=names, values=values)


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise DataError(f"{path}:{lineno}: expected key = value")
            key, value = text.split("=", 1)
            key = key.strip()
            if not key:
                raise DataError(f"{path}:{lineno}: empty key")
            if key in out:
                raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value.strip()
    return out
