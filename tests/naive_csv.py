"""Reference data-CSV reader used as a test oracle.

Reads one csv.reader record at a time into nested dicts, checking each row
in file order, then builds one TimeSeries per series. Slow but obviously
correct; the production reader must give the same Dataset or the same
DataError text on every file.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from pdbpe import data_io
from pdbpe.core import Dataset, TimeSeries
from pdbpe.errors import DataError


def _records(path, fh):
    reader = csv.reader(fh)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: malformed CSV: {exc}") from None


def read_data_csv(path: str) -> Dataset:
    max_t = data_io.MAX_T
    per_series: dict[str, dict[str, dict[int, float]]] = {}
    channel_order: list[str] = []
    # utf-8-sig skips a byte-order mark at the start of the file only.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = _records(path, fh)
        _, header = next(records, (1, None))
        if header is None:
            raise DataError(f"{path}: empty file, expected header "
                            "series_id,channel,t,value")
        if [h.strip() for h in header] != data_io.DATA_HEADER:
            raise DataError(f"{path}:1: bad header {header!r}, expected "
                            "series_id,channel,t,value")
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
            if not 0 <= t <= max_t:
                bound = ">= 0" if t < 0 else f"<= {max_t}"
                raise DataError(f"{path}:{lineno}: t must be {bound}, got {t}")
            try:
                value = float(v_raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: value must be a number, "
                                f"got {v_raw!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: value must be finite, "
                                f"got {v_raw!r}")
            by_channel = per_series.setdefault(sid, {})
            if channel not in by_channel:
                by_channel[channel] = {}
                if channel not in channel_order:
                    channel_order.append(channel)
            if t in by_channel[channel]:
                raise DataError(f"{path}:{lineno}: duplicate entry for series "
                                f"{sid!r} channel {channel!r} t={t}")
            by_channel[channel][t] = value

    channels = tuple(channel_order)
    for sid, by_channel in per_series.items():
        for ch in channels:
            if ch not in by_channel:
                raise DataError(f"{path}: series {sid!r} has no rows for "
                                f"channel {ch!r}")
    lengths = {sid: 1 + max(max(ts) for ts in by_channel.values())
               for sid, by_channel in per_series.items()}
    total = sum(lengths.values()) * len(channels)
    if total > data_io.MAX_SAMPLES:
        raise DataError(f"{path}: the series need {total} samples "
                        f"((1 + max t) x {len(channels)} channels, summed over "
                        f"series), over the limit MAX_SAMPLES = "
                        f"{data_io.MAX_SAMPLES}")
    series = []
    for sid, by_channel in per_series.items():
        values = np.zeros((lengths[sid], len(channels)))
        mask = np.zeros((lengths[sid], len(channels)), dtype=bool)
        for j, ch in enumerate(channels):
            for t, v in by_channel[ch].items():
                values[t, j] = v
                mask[t, j] = True
        series.append(TimeSeries(id=sid, channels=channels, values=values,
                                 mask=mask))
    return Dataset(series=tuple(series))
