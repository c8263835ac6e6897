"""Synthetic data generators shared by the test modules."""

from __future__ import annotations

import csv

import numpy as np

from pdbpe import Dataset, TimeSeries


def motif_dataset(n_series=200, length=288, motif_len=12, amplitude=1.8,
                  noise=0.3, missing_rate=0.10, seed=0):
    """Two-class corpus where class A carries a planted plateau motif.

    Every series is Gaussian noise; class A additionally gets a flat bump of
    the given amplitude at a random location. Class B gets an energy-matched
    alternating burst at a random location instead: same per-series variance,
    but zero mean and no low-frequency structure, so the classes cannot be
    told apart by overall scale, only by the motif's shape. Returns the
    dataset and {series_id: (start, end)} for the planted windows.
    """
    rng = np.random.default_rng(seed)
    frac = motif_len / length
    series = []
    planted = {}
    for i in range(n_series):
        label = "A" if i % 2 == 0 else "B"
        vals = rng.normal(0.0, noise, size=length)
        start = int(rng.integers(motif_len, length - 2 * motif_len))
        if label == "A":
            vals[start:start + motif_len] += amplitude
            planted[f"s{i:03d}"] = (start, start + motif_len)
        else:
            # +-amplitude zigzag adds variance f*a^2 where the plateau adds
            # f*(1-f)*a^2; scale so both classes inflate by the same amount.
            burst = amplitude * np.sqrt(1.0 - frac)
            signs = np.where(np.arange(motif_len) % 2 == 0, 1.0, -1.0)
            vals[start:start + motif_len] += burst * signs
        mask = np.ones(length, dtype=bool)
        if missing_rate > 0:
            mask[rng.random(length) < missing_rate] = False
            # keep the endpoints observed so a CSV round trip preserves length
            mask[0] = True
            mask[-1] = True
        series.append(TimeSeries.univariate(f"s{i:03d}", vals, mask=mask,
                                            label=label))
    return Dataset(tuple(series)), planted


def dataset_to_csv(dataset, data_path, labels_path=None):
    """Serialize a dataset to the CSV layout the CLI reads.

    Masked samples become absent rows. Labels (and group ids when present)
    go to a second file if a path is given. Fields are quoted only where
    csv.writer must quote them, such as an id holding a comma.
    """
    with open(data_path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["series_id", "channel", "t", "value"])
        for ts in dataset:
            for j, ch in enumerate(ts.channels):
                for t in range(ts.length):
                    if ts.mask[t, j]:
                        out.writerow([ts.id, ch, t,
                                      repr(float(ts.values[t, j]))])
    if labels_path is not None:
        width = 3 if any(ts.group_id is not None for ts in dataset) else 2
        with open(labels_path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["series_id", "label", "group_id"][:width])
            out.writerows([ts.id, ts.label, ts.group_id or ""][:width]
                          for ts in dataset if ts.label is not None)


def random_symbol_corpus(rng, max_series=10, max_len=30, alphabet=6):
    """Random integer corpus for miner fuzzing. rng is a random.Random."""
    n = rng.randint(1, max_series)
    corpus = []
    for _ in range(n):
        length = rng.randint(0, max_len)
        corpus.append([rng.randrange(alphabet) for _ in range(length)])
    return corpus


def random_dataset(rng, n_series=6, n_channels=2, length=40, with_mask=True,
                   with_labels=True, with_groups=False):
    """Random multichannel dataset. rng is a numpy Generator."""
    channels = tuple(f"ch{j}" for j in range(n_channels))
    series = []
    for i in range(n_series):
        vals = rng.normal(size=(length, n_channels))
        mask = None
        if with_mask:
            mask = rng.random((length, n_channels)) > 0.1
            mask[0, :] = True
        label = None
        if with_labels:
            label = "pos" if i % 2 else "neg"
        group = f"g{i // 2}" if with_groups else None
        series.append(TimeSeries(id=f"r{i}", channels=channels, values=vals,
                                 mask=mask, label=label, group_id=group))
    return Dataset(tuple(series))


def ragged_dataset(rng, n_series=12, n_channels=1, min_length=24,
                   max_length=120, missing_rate=0.1, with_groups=False):
    """Random-walk series of unequal lengths with gaps. rng is a numpy
    Generator; each series' length is drawn from [min_length, max_length]
    and its first sample is observed on every channel."""
    channels = tuple(f"ch{j}" for j in range(n_channels))
    series = []
    for i in range(n_series):
        length = int(rng.integers(min_length, max_length + 1))
        vals = np.cumsum(rng.normal(size=(length, n_channels)), axis=0)
        mask = rng.random((length, n_channels)) >= missing_rate
        mask[0, :] = True
        series.append(TimeSeries(id=f"q{i}", channels=channels, values=vals,
                                 mask=mask, group_id=(f"g{i % 4}" if with_groups
                                                      else None)))
    return Dataset(tuple(series))


def sine_dataset(rng, n_series=40, length=288, noise=0.3):
    """Sine waves of random frequency and phase plus Gaussian noise, the
    shape of the scale runs. rng is a numpy Generator."""
    tgrid = np.arange(length)
    freq = rng.uniform(0.01, 0.15, size=(n_series, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_series, 1))
    X = np.sin(2.0 * np.pi * freq * tgrid + phase)
    X += rng.normal(0.0, noise, size=(n_series, length))
    return Dataset(tuple(TimeSeries.univariate(f"w{i:03d}", X[i])
                         for i in range(n_series)))
