"""End-to-end model fitting and application.

Fitting: normalize each series, aggregate with PAA, fit dataset-level bin
edges per mined channel, derive the configured variations, and learn one
merge vocabulary per (channel, variation). Features are the length-normalized
occurrence counts of base symbols and supported patterns in each series'
final token stream, pruned of zero-variance and highly correlated columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (Dataset, MultivariateMode, PipelineConfig, TimeSeries,
                   Variation)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import DataError
from .features import (CENTROID_PREFIX, FeatureDescriptor, FeatureMatrix,
                       FeatureSchema, assemble_matrix, build_schema,
                       centroid_augment, drop_zero_variance, prune_correlated)
from .bpe import Corpus, Vocabulary, encode_corpus, fit_bpe
from .preprocess import collapse_series, paa, zscore_normalize
from .variations import fit_rcsm_medians, view

# Pseudo-channel name used when multichannel input is whitened and collapsed.
COLLAPSED_CHANNEL = "combined"


@dataclass
class FittedModel:
    """Everything needed to reproduce a transform: bin edges and fences per
    mined channel, run-length medians, per-(channel, variation) vocabularies,
    the feature schema with pruning masks, and (optionally) the training
    group-centroid table."""

    config: PipelineConfig
    channels: tuple[str, ...]
    mined_channels: tuple[str, ...]
    n_training_series: int
    discretizers: dict[str, Discretizer]
    rcsm_medians: dict[str, dict[int, int]]
    vocabularies: dict[tuple[str, Variation], Vocabulary]
    schema: FeatureSchema
    centroid_table: dict[str, np.ndarray] | None = None

    def pattern_counts(self) -> tuple[int, int]:
        """(patterns mined, patterns emitted as columns after the support
        filter)."""
        identified = sum(len(v.rules) for v in self.vocabularies.values())
        emitted = sum(1 for c in self.schema.columns if c.is_pattern)
        return identified, emitted

    def output_names(self) -> tuple[str, ...]:
        names = self.schema.final_names()
        if self.centroid_table is not None:
            names = names + tuple(CENTROID_PREFIX + n for n in names)
        return names


def _mined_channels(channels: tuple[str, ...], mode: MultivariateMode) -> tuple[str, ...]:
    if mode is MultivariateMode.WHITEN_COLLAPSE:
        return (COLLAPSED_CHANNEL,)
    return channels


def _paa_streams(ts: TimeSeries, config: PipelineConfig) -> dict[str, np.ndarray]:
    """Normalized, PAA-aggregated value stream per mined channel."""
    out: dict[str, np.ndarray] = {}
    if config.multivariate_mode is MultivariateMode.WHITEN_COLLAPSE:
        collapsed = collapse_series(ts.values, ts.mask)
        out[COLLAPSED_CHANNEL] = paa(collapsed, config.W)
    else:
        for j, ch in enumerate(ts.channels):
            normalized = zscore_normalize(ts.values[:, j], ts.mask[:, j])
            out[ch] = paa(normalized, config.W)
    return out


def _symbols(streams: list[dict[str, np.ndarray]], mined: tuple[str, ...],
             discretizers: dict[str, Discretizer]) -> dict[str, Corpus]:
    """Base-symbol corpus of every series per mined channel."""
    out = {}
    for ch in mined:
        parts = [s[ch] for s in streams]
        series = np.repeat(np.arange(len(parts)), [p.size for p in parts])
        out[ch] = Corpus(apply_discretizer(np.concatenate(parts),
                                           discretizers[ch]),
                         series, len(parts))
    return out


def _views(symbols: dict[str, Corpus], config: PipelineConfig,
           medians: dict[str, dict[int, int]]) -> Iterator[tuple[tuple[str, Variation], Corpus]]:
    """Each (channel, variation) with the corpus of that view, built one at
    a time so that only one view is held at once."""
    for ch, corpus in symbols.items():
        for variation in config.variations:
            yield (ch, variation), view(corpus, variation, medians[ch], config.K)[0]


def _align_channels(dataset: Dataset, channels: tuple[str, ...]) -> Dataset:
    """Reorder dataset channels to match a model's layout; the channel set
    must be identical."""
    if len(dataset) == 0:
        raise DataError("dataset has no series")
    if dataset.channels == channels:
        return dataset
    missing = set(channels) - set(dataset.channels)
    extra = set(dataset.channels) - set(channels)
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing channels {sorted(missing)}")
        if extra:
            parts.append(f"unknown channels {sorted(extra)}")
        raise DataError("channel mismatch with model: " + "; ".join(parts))
    perm = [dataset.channels.index(c) for c in channels]
    series = tuple(TimeSeries(id=ts.id, channels=channels,
                              values=ts.values[:, perm], mask=ts.mask[:, perm],
                              group_id=ts.group_id, label=ts.label)
                   for ts in dataset)
    return Dataset(series=series)


def fit_pipeline(dataset: Dataset, config: PipelineConfig,
                 centroids: bool = False) -> tuple[FittedModel, FeatureMatrix]:
    """Fit the full pipeline on a training dataset.

    Returns the fitted model and the training feature matrix (rows in dataset
    order). With centroids=True every series needs a group id; each row then
    gets its group's mean feature vector appended.
    """
    if len(dataset) == 0:
        raise DataError("cannot fit on an empty dataset")
    n = len(dataset)
    mined = _mined_channels(dataset.channels, config.multivariate_mode)

    streams = [_paa_streams(ts, config) for ts in dataset.series]

    discretizers: dict[str, Discretizer] = {}
    for ch in mined:
        pooled = np.concatenate([s[ch] for s in streams])
        discretizers[ch] = fit_discretizer(pooled, config.K, config.iqr_multiplier)

    symbols = _symbols(streams, mined, discretizers)
    rcsm_medians = {ch: fit_rcsm_medians(symbols[ch])
                    if Variation.RCSM in config.variations else {}
                    for ch in mined}

    vocabularies, encoded = {}, {}
    for key, corpus in _views(symbols, config, rcsm_medians):
        vocabularies[key] = fit_bpe(corpus, config.base_size(key[1]),
                                    P=config.P, U=config.U)
        encoded[key] = encode_corpus(corpus, vocabularies[key])

    schema = build_schema(mined, config.variations, vocabularies, n, config.P,
                          config.K)
    raw = assemble_matrix(dataset.ids, encoded, schema)

    n_cols = len(schema.columns)
    if n >= 2:
        _, variance_kept = drop_zero_variance(raw.values)
        surviving = raw.values[:, variance_kept]
        _, corr_kept_rel = prune_correlated(surviving, config.correlation_threshold)
        final_kept = np.zeros(n_cols, dtype=bool)
        final_kept[np.flatnonzero(variance_kept)[corr_kept_rel]] = True
    else:
        # Pruning statistics are undefined for a single row; keep everything.
        variance_kept = np.ones(n_cols, dtype=bool)
        final_kept = np.ones(n_cols, dtype=bool)
    schema.variance_kept = tuple(bool(b) for b in variance_kept)
    schema.final_kept = tuple(bool(b) for b in final_kept)

    model = FittedModel(config=config, channels=dataset.channels,
                        mined_channels=mined, n_training_series=n,
                        discretizers=discretizers, rcsm_medians=rcsm_medians,
                        vocabularies=vocabularies, schema=schema)
    values, model.centroid_table = _output_values(model, dataset, raw.values,
                                                  centroids)
    return model, FeatureMatrix(ids=dataset.ids, names=model.output_names(),
                                values=values)


def transform_dataset(model: FittedModel, dataset: Dataset) -> FeatureMatrix:
    """Apply a fitted model to new series, reproducing the training matrix
    bit-exactly on the training data.

    Channels must match the model's (order is fixed up automatically). When
    the model was fitted with centroid augmentation, every series needs a
    group id; centroids are the group means over the rows being transformed.
    """
    dataset = _align_channels(dataset, model.channels)
    streams = [_paa_streams(ts, model.config) for ts in dataset.series]
    symbols = _symbols(streams, model.mined_channels, model.discretizers)
    encoded = {key: encode_corpus(corpus, model.vocabularies[key])
               for key, corpus in _views(symbols, model.config,
                                         model.rcsm_medians)}
    raw = assemble_matrix(dataset.ids, encoded, model.schema).values
    values, _table = _output_values(model, dataset, raw,
                                    model.centroid_table is not None)
    return FeatureMatrix(ids=dataset.ids, names=model.output_names(),
                         values=values)


def _output_values(model: FittedModel, dataset: Dataset, raw: np.ndarray,
                   centroids: bool) -> tuple[np.ndarray, dict[str, np.ndarray] | None]:
    """The columns kept by pruning and, with centroids, each row's group
    mean appended; also the group-centroid table (None without centroids)."""
    kept = model.schema.final_kept
    values = raw if kept is None else raw[:, np.asarray(kept, dtype=bool)]
    if not centroids:
        return values, None
    return centroid_augment(values, [ts.group_id for ts in dataset])


def _occurrences(tokens: np.ndarray, series: np.ndarray,
                 pattern: tuple[int, ...]) -> list[int]:
    """Start positions of the non-overlapping left-to-right matches of
    pattern inside one series of a flat view, ascending."""
    m = len(pattern)
    n = tokens.size - m + 1
    if m == 0 or n <= 0:
        return []
    match = series[m - 1:] == series[:n]
    for k, sym in enumerate(pattern):
        match &= tokens[k:k + n] == sym
    hits: list[int] = []
    for i in np.flatnonzero(match).tolist():
        # A kept match ends inside its series, so a match in a later series
        # always starts past it.
        if not hits or i >= hits[-1] + m:
            hits.append(i)
    return hits


def pattern_spans(model: FittedModel, dataset: Dataset,
                  descriptors: list[FeatureDescriptor]) -> dict[str, dict[str, list[tuple[int, int]]]]:
    """Occurrence spans of the given features in original sample coordinates.

    For each feature, each series gets the half-open [start, end) index
    ranges where the decoded base-symbol sequence matches the series'
    variation stream (non-overlapping, left to right), mapped back through
    the view's source runs and the PAA window.
    """
    dataset = _align_channels(dataset, model.channels)
    config = model.config
    symbols = _symbols([_paa_streams(ts, config) for ts in dataset.series],
                       model.mined_channels, model.discretizers)
    ids = dataset.ids
    length = [ts.length for ts in dataset]
    result: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for desc in descriptors:
        base = symbols[desc.channel]
        corpus, lo, hi = view(base, desc.variation,
                              model.rcsm_medians[desc.channel], config.K)
        # Flat index of each series' first base symbol.
        offset = np.cumsum(base.lengths()) - base.lengths()
        m = len(desc.decoded)
        result[desc.name] = per_series = {}
        for t in _occurrences(corpus.tokens, corpus.series, desc.decoded):
            s = int(corpus.series[t])
            span = (int(lo[t] - offset[s]) * config.W,
                    min(int(hi[t + m - 1] - offset[s]) * config.W, length[s]))
            per_series.setdefault(ids[s], []).append(span)
    return result
