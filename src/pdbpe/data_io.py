"""CSV and config-file input/output.

Data CSV is long format with header series_id,channel,t,value; a missing
(series, channel, t) row marks that entry unobserved (mask False, value 0).
Labels CSV is series_id,label with an optional third group_id column.
Feature CSVs print values with 17 significant digits so they round-trip
bit-exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .core import Dataset, TimeSeries
from .errors import DataError
from .features import FeatureMatrix

DATA_HEADER = ["series_id", "channel", "t", "value"]
# Largest time index accepted; a series allocates 1 + max(t) samples.
MAX_T = 2**24 - 1


def _records(path: str, fh: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each CSV record, numbered by the physical
    line it ends on; text that is not valid CSV is a DataError."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None


def read_data_csv(path: str) -> Dataset:
    """Read a long-format data CSV into a Dataset.

    Series appear in first-appearance order; the channel list is the
    first-appearance union over the whole file and every series must carry
    at least one row for every channel. Each series' length is max(t) + 1.
    """
    per_series: dict[str, dict[str, dict[int, float]]] = {}
    series_order: list[str] = []
    channel_order: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = _records(path, fh)
        _, header = next(records, (1, None))
        if header is None:
            raise DataError(f"{path}: empty file, expected header "
                            f"{','.join(DATA_HEADER)}")
        if [h.strip() for h in header] != DATA_HEADER:
            raise DataError(f"{path}:1: bad header {header!r}, expected "
                            f"{','.join(DATA_HEADER)}")
        for lineno, row in records:
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            sid, channel, t_raw, v_raw = (f.strip() for f in row)
            if not sid or not channel:
                raise DataError(f"{path}:{lineno}: empty series_id or channel")
            try:
                t = int(t_raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: t must be an integer, "
                                f"got {t_raw!r}") from None
            if not 0 <= t <= MAX_T:
                bound = ">= 0" if t < 0 else f"<= {MAX_T}"
                raise DataError(f"{path}:{lineno}: t must be {bound}, got {t}")
            try:
                value = float(v_raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: value must be a number, "
                                f"got {v_raw!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: value must be finite, "
                                f"got {v_raw!r}")
            if sid not in per_series:
                per_series[sid] = {}
                series_order.append(sid)
            if channel not in per_series[sid]:
                per_series[sid][channel] = {}
                if channel not in channel_order:
                    channel_order.append(channel)
            if t in per_series[sid][channel]:
                raise DataError(f"{path}:{lineno}: duplicate entry for series "
                                f"{sid!r} channel {channel!r} t={t}")
            per_series[sid][channel][t] = value

    channels = tuple(channel_order)
    series: list[TimeSeries] = []
    for sid in series_order:
        by_channel = per_series[sid]
        for ch in channels:
            if ch not in by_channel:
                raise DataError(f"{path}: series {sid!r} has no rows for "
                                f"channel {ch!r}")
        length = 1 + max(max(ts.keys()) for ts in by_channel.values())
        values = np.zeros((length, len(channels)))
        mask = np.zeros((length, len(channels)), dtype=bool)
        for j, ch in enumerate(channels):
            for t, v in by_channel[ch].items():
                values[t, j] = v
                mask[t, j] = True
        series.append(TimeSeries(id=sid, channels=channels, values=values,
                                 mask=mask))
    return Dataset(series=tuple(series))


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


def write_features_csv(matrix: FeatureMatrix, path: str) -> None:
    """Write a feature matrix with 17-significant-digit values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series_id", *matrix.names])
        for i, sid in enumerate(matrix.ids):
            writer.writerow([sid] + [f"{v:.17g}" for v in matrix.values[i]])


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
