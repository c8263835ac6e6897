"""CSV and config-file input/output.

Data CSV is long format with header series_id,channel,t,value; a missing
(series, channel, t) row marks that entry unobserved (mask False, value 0).
Labels CSV is series_id,label with an optional third group_id column.
Feature CSVs print values with 17 significant digits so they round-trip
bit-exactly.

A data CSV is read in blocks of whole lines, about BLOCK_CHARS characters
each, and every block becomes coded columns (series code, channel code, t,
value) without a list or dict per row. Two tokenizers split the blocks:

- The fast one splits lines on "\n" and fields on ",". It runs on every
  block with no '"', "\r" or NUL, no line longer than
  csv.field_size_limit() and four fields on every non-blank line; on such
  text csv.reader finds exactly the same fields.
- From the first block that breaks any of these, that block and the rest of
  the file go through csv.reader, which parses quoted fields (also across
  lines) and reports malformed text. Files with CRLF line ends take this
  path throughout.

Bad rows are found by whole-column checks and then reported as the first
failing row in file order. Memory follows the number of rows and samples,
not the length of the file's text.
"""

from __future__ import annotations

import csv
import itertools
import math
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


def _split_block(lines: list[str],
                 start: int) -> tuple[Sequence[int], list[str]] | None:
    """(line numbers, fields) of the non-blank lines, which follow line
    start, when the fast split gives csv.reader's fields and four of them
    on every line; otherwise None."""
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    numbers: Sequence[int] = range(start + 1, start + len(lines) + 1)
    if "\n" in lines:  # csv.reader gives no fields for a blank line
        numbers = np.array([k for k, line in zip(numbers, lines)
                            if line != "\n"], dtype=np.int64)
        text = "".join(line for line in lines if line != "\n")
    if not text.endswith("\n"):
        text += "\n"
    # Every line end becomes a "\n" field of its own; the lines are 4
    # fields wide exactly when those are every fifth field.
    fields = text.replace("\n", ",\n,").split(",")
    del fields[-1]
    if (len(fields) != 5 * len(numbers)
            or fields[4::5].count("\n") != len(numbers)):
        return None
    del fields[4::5]
    return numbers, fields


def _data_blocks(path: str, fh: IO[str],
                 start: int) -> Iterator[tuple[Sequence[int], list[str], str | None]]:
    """(line numbers, fields, error) of each block of data records after
    line start: 4 fields per record, blank records dropped. A non-None
    error is the message for the record right after the block; no block
    follows it."""
    while True:
        lines = fh.readlines(BLOCK_CHARS)
        if not lines:
            return
        split = _split_block(lines, start)
        if split is None:
            break
        yield *split, None
        start += len(lines)
    numbers: list[int] = []
    fields: list[str] = []
    error = None
    try:
        for lineno, row in _records(path, itertools.chain(lines, fh), start):
            if not row:
                continue
            if len(row) != 4:
                error = f"{path}:{lineno}: expected 4 fields, got {len(row)}"
                break
            numbers.append(lineno)
            fields += row
            # About as many rows as a fast block of 64-character lines.
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

    def add(self, numbers: Sequence[int], fields: list[str]) -> str | None:
        """Code the records of a block. At its first bad record, code only
        the records before it and return that record's error message."""
        n = len(numbers)
        if not n:
            return None
        sid, channel, t_raw, v_raw = (list(map(str.strip, fields[k::4]))
                                      for k in range(4))
        try:
            t = np.fromiter(map(int, t_raw), np.int64, n)
            value = np.fromiter(map(float, v_raw), np.float64, n)
            valid = ("" not in sid and "" not in channel and t.min() >= 0
                     and t.max() <= MAX_T and np.isfinite(value).all())
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            for i, row in enumerate(zip(sid, channel, t_raw, v_raw)):
                message = _row_error(*row)
                if message:
                    break
            self.add(numbers[:i], fields[:4 * i])
            return f"{self.path}:{numbers[i]}: {message}"
        codes = []
        for names, index in ((sid, self.series), (channel, self.channels)):
            for name in dict.fromkeys(names):
                index.setdefault(name, len(index))
            codes.append(np.fromiter(map(index.__getitem__, names), np.int32, n))
        self.blocks.append((numbers, *codes, t.astype(np.int32), value))
        return None

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

    def dataset(self) -> Dataset:
        """The series, each (1 + max t) samples long, as slices of one
        samples x channels block."""
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
        return Dataset(series=tuple(
            TimeSeries(id=sid, channels=channels, values=values[o:o + n],
                       mask=mask[o:o + n])
            for sid, o, n in zip(ids, offsets.tolist(), lengths.tolist())))


def read_data_csv(path: str) -> Dataset:
    """Read a long-format data CSV into a Dataset.

    Series appear in first-appearance order; the channel list is the
    first-appearance union over the whole file and every series must carry
    at least one row for every channel. Each series' length is max(t) + 1,
    and all series together may need at most MAX_SAMPLES samples.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        start, header = next(_records(path, fh), (1, None))
        if header is None:
            raise DataError(f"{path}: empty file, expected header "
                            f"{','.join(DATA_HEADER)}")
        if [h.strip() for h in header] != DATA_HEADER:
            raise DataError(f"{path}:1: bad header {header!r}, expected "
                            f"{','.join(DATA_HEADER)}")
        columns = _Columns(path)
        for numbers, fields, error in _data_blocks(path, fh, start):
            message = columns.add(numbers, fields) or error
            if message:
                columns.fail(message)
    return columns.dataset()


@dataclass(frozen=True)
class LabelRecord:
    label: str
    group_id: str | None = None


def read_labels_csv(path: str) -> dict[str, LabelRecord]:
    """Read series_id,label[,group_id] keyed by series id."""
    out: dict[str, LabelRecord] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
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


def attach_labels(dataset: Dataset, labels: dict[str, LabelRecord]) -> Dataset:
    """Return a dataset whose series carry label and group id annotations.

    Series without a label record keep label None (they can still be
    transformed; evaluation filters on labeled series).
    """
    series = []
    for ts in dataset:
        rec = labels.get(ts.id)
        if rec is None:
            series.append(ts)
        else:
            series.append(ts.with_annotations(group_id=rec.group_id,
                                              label=rec.label))
    return Dataset(series=tuple(series))


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
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad value: {exc}") from None
    values = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return FeatureMatrix(ids=tuple(ids), names=names, values=values)


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
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
