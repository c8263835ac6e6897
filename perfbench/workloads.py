"""Workload definitions and seeded input generation.

Every input is a pure function of (workload, seed): the same seed writes the
same bytes. Inputs are written once per (workload, seed) into the workload's
directory under ``perfbench/work/`` and reused by later runs with that seed,
as long as the workload's sizes and this module's source are unchanged.
Generation always happens before any timing starts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# File names inside a workload directory. CLI operations run with that
# directory as their working directory and these relative names as
# arguments, so reports that echo the paths do not depend on the checkout.
TRAIN_CSV = "train.csv"
HELDOUT_CSV = "heldout.csv"
LABELS_CSV = "labels.csv"
ARRAYS = "arrays.npz"
INPUTS_JSON = "inputs.json"
MODEL = "model.json"
FEATURES = "features.csv"
HELDOUT_FEATURES = "heldout_features.csv"
REPORT = "report.txt"
# Written by the checks that follow the timed rounds.
TRAIN_TRANSFORM = "train_transform.csv"
RESAVED_MODEL = "resaved_model.json"


@dataclass(frozen=True)
class Workload:
    name: str
    series: int          # training series (also the evaluate input)
    heldout: int         # series transformed with the fitted model
    samples: int         # samples per series and channel
    channels: int
    missing: float       # share of samples left unobserved
    cli: bool            # operations go through the `pdbpe` command line
    fit_args: tuple[str, ...]       # config flags shared by discover/evaluate
    evaluate_args: tuple[str, ...]  # extra evaluate flags

    def flag(self, name: str) -> str:
        """Value of a command-line flag, e.g. flag("--folds")."""
        args = self.fit_args + self.evaluate_args
        return dict(zip(args[::2], args[1::2]))[name]

    def argv(self, op: str) -> list[str]:
        """Command-line arguments of one operation (CLI workloads)."""
        if op == "fit":
            return ["discover", "--data", TRAIN_CSV, *self.fit_args,
                    "--model-out", MODEL, "--features-out", FEATURES]
        if op == "transform":
            return ["transform", "--model", MODEL, "--data", HELDOUT_CSV,
                    "--features-out", HELDOUT_FEATURES]
        if op == "evaluate":
            return ["evaluate", "--data", TRAIN_CSV, "--labels", LABELS_CSV,
                    *self.fit_args, *self.evaluate_args,
                    "--report-out", REPORT]
        raise ValueError(f"unknown operation {op!r}")


# A timed round (fit, transform, evaluate) takes 5-7 s on a 2-CPU machine,
# so a 36 s run holds five to seven rounds; one fit and
# transform at the 12,000-series reference scale take about 50 s. Each
# operation takes about a second or more, so process start-up is not most of
# it. The shapes keep what each workload is for; see perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        # Many short series through the CLI: CSV ingest and per-series
        # Python overhead dominate.
        Workload("reference_cli", series=600, heldout=600, samples=288,
                 channels=1, missing=0.0, cli=True,
                 fit_args=("--k", "10", "--w", "8"),
                 evaluate_args=("--folds", "2")),
        # Few long series through the library: no ingest; merge mining over
        # long sequences and per-rule encode passes dominate.
        Workload("long_api", series=30, heldout=40, samples=2880,
                 channels=1, missing=0.0, cli=False,
                 fit_args=("--k", "8", "--w", "4"),
                 evaluate_args=("--folds", "2")),
        # Labeled multichannel series with gaps and groups: whitening
        # collapse and the group-aware cross-validation loop.
        Workload("multichannel_cv", series=160, heldout=160, samples=288,
                 channels=3, missing=0.05, cli=True,
                 fit_args=("--multivariate-mode", "whiten_collapse",
                           "--k", "6", "--w", "4"),
                 evaluate_args=("--folds", "5", "--group-aware")),
    )
}

OPS = ("fit", "transform", "evaluate")
GROUP_SIZE = 10


def _series_block(rng, n: int, w: Workload):
    """Sine with seeded frequency and phase per channel plus N(0, 0.3)
    noise, as in the library's scale acceptance test; returns values
    (n, samples, channels), mask and the per-series frequency of channel 0."""
    t = np.arange(w.samples)
    # Frequencies evenly cover [0.01, 0.15] in a seeded order, so every seed
    # gives the same mix of fast and slow series and about the same work.
    grid = np.linspace(0.01, 0.15, n)
    freq = np.stack([rng.permutation(grid) for _ in range(w.channels)],
                    axis=1)[:, None, :]
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1, w.channels))
    values = np.sin(2.0 * np.pi * freq * t[None, :, None] + phase)
    values += rng.normal(0.0, 0.3, size=values.shape)
    mask = rng.random(values.shape) >= w.missing
    # Keep both ends observed so every channel has rows and the CSV round
    # trip preserves the series length.
    mask[:, 0, :] = True
    mask[:, -1, :] = True
    return values, mask, freq[:, 0, 0]


def train_ids(w: Workload) -> list[str]:
    return [f"s{i:05d}" for i in range(w.series)]


def heldout_ids(w: Workload) -> list[str]:
    return [f"h{i:05d}" for i in range(w.heldout)]


def generate(w: Workload, seed: int) -> dict[str, np.ndarray]:
    """All arrays of one workload for one seed."""
    index = list(WORKLOADS).index(w.name)
    rng = np.random.default_rng([seed, index])
    values, mask, freq = _series_block(rng, w.series, w)
    h_values, h_mask, _ = _series_block(rng, w.heldout, w)
    return {
        "ids": np.array(train_ids(w)),
        "values": values, "mask": mask,
        "labels": np.where(freq < 0.08, "slow", "fast"),
        "groups": np.array([f"g{i // GROUP_SIZE:04d}" for i in range(w.series)]),
        "heldout_ids": np.array(heldout_ids(w)),
        "heldout_values": h_values, "heldout_mask": h_mask,
    }


def channel_names(w: Workload) -> list[str]:
    return ["value"] if w.channels == 1 else [f"c{j}" for j in range(w.channels)]


def write_data_csv(path: str, ids, values, mask, channels) -> int:
    """Long-format CSV of the observed samples; returns the data row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("series_id,channel,t,value\n")
        for i, sid in enumerate(ids):
            for j, ch in enumerate(channels):
                ts = np.flatnonzero(mask[i, :, j]).tolist()
                vs = values[i, ts, j].tolist()
                fh.writelines(f"{sid},{ch},{t},{v!r}\n" for t, v in zip(ts, vs))
                rows += len(ts)
    return rows


def fingerprint(w: Workload, seed: int) -> str:
    """Identifies the inputs of (workload, seed): the workload's fields, the
    seed and the source of this module, which holds the generator."""
    with open(__file__, "rb") as fh:
        source = fh.read()
    return hashlib.sha256(source + repr((w, seed)).encode()).hexdigest()


def prepare(w: Workload, seed: int, directory: str) -> dict:
    """Make the inputs of (workload, seed) in directory unless inputs with
    the same fingerprint are already there; returns the input description
    recorded with results."""
    marker = os.path.join(directory, INPUTS_JSON)
    stamp = fingerprint(w, seed)
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as fh:
            info = json.load(fh)
        if info.get("fingerprint") == stamp:
            return info
        os.remove(marker)
    os.makedirs(directory, exist_ok=True)
    arrays = generate(w, seed)
    info = {"workload": w.name, "seed": seed, "fingerprint": stamp,
            "series": w.series,
            "heldout_series": w.heldout, "samples": w.samples,
            "channels": w.channels, "missing": w.missing}
    if w.cli:
        chans = channel_names(w)
        rows = write_data_csv(os.path.join(directory, TRAIN_CSV), arrays["ids"],
                              arrays["values"], arrays["mask"], chans)
        rows += write_data_csv(os.path.join(directory, HELDOUT_CSV),
                               arrays["heldout_ids"], arrays["heldout_values"],
                               arrays["heldout_mask"], chans)
        with open(os.path.join(directory, LABELS_CSV), "w", encoding="utf-8") as fh:
            fh.write("series_id,label,group_id\n")
            fh.writelines(f"{s},{lab},{g}\n" for s, lab, g in
                          zip(arrays["ids"], arrays["labels"], arrays["groups"]))
        info["csv_rows"] = rows
        info["csv_bytes"] = sum(os.path.getsize(os.path.join(directory, f))
                                for f in (TRAIN_CSV, HELDOUT_CSV, LABELS_CSV))
    else:
        np.savez(os.path.join(directory, ARRAYS), **arrays)
        info["csv_rows"] = 0
        info["csv_bytes"] = 0
    info["observed_samples"] = int(arrays["mask"].sum() + arrays["heldout_mask"].sum())
    tmp = marker + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    os.replace(tmp, marker)
    return info


def load_datasets(directory: str):
    """(train, heldout) Datasets of an array workload, with labels and
    group ids on the training series."""
    from pdbpe.core import Dataset, TimeSeries
    with np.load(os.path.join(directory, ARRAYS)) as z:
        arrays = {k: z[k] for k in z.files}
    chans = tuple(["value"] if arrays["values"].shape[2] == 1 else
                  [f"c{j}" for j in range(arrays["values"].shape[2])])
    train = Dataset(tuple(
        TimeSeries(id=str(sid), channels=chans, values=arrays["values"][i],
                   mask=arrays["mask"][i], group_id=str(arrays["groups"][i]),
                   label=str(arrays["labels"][i]))
        for i, sid in enumerate(arrays["ids"])))
    heldout = Dataset(tuple(
        TimeSeries(id=str(sid), channels=chans,
                   values=arrays["heldout_values"][i],
                   mask=arrays["heldout_mask"][i])
        for i, sid in enumerate(arrays["heldout_ids"])))
    return train, heldout
