"""End-to-end model fitting and application.

Fit, transform and spans share one front half in two steps. _streams is
per series: z-normalization (or whitening and collapse) against the series'
own statistics, then PAA, so a series' stream does not depend on the other
series it is fitted or transformed with. Each series is normalized once and
PAA runs once per W asked for, so cross-validation takes the streams of
every W of its grid in one call and every fold slices them. _symbols is per
dataset: it pools the streams of each mined channel, fits the bin edges on
that pool when fitting, and discretizes. Fit learns one merge vocabulary
per (channel, variation). Features are the length-normalized
occurrence counts of base symbols and supported patterns in each series'
final token stream, pruned of zero-variance and highly correlated columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import (Dataset, MultivariateMode, PipelineConfig,
                   Variation, require_group_ids)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import DataError, NumericError
from .features import (CENTROID_PREFIX, FeatureDescriptor, FeatureMatrix,
                       FeatureSchema, assemble_matrix, build_schema,
                       centroid_augment, drop_zero_variance, prune_correlated)
from .bpe import Corpus, Vocabulary, encode_corpus, fit_bpe
from .preprocess import collapse_series, paa, zscore_normalize
from .variations import fit_rcsm_medians, view

# Pseudo-channel name used when multichannel input is whitened and collapsed.
COLLAPSED_CHANNEL = "combined"


@dataclass(eq=False)
class FittedModel:
    """Everything needed to reproduce a transform: bin edges and fences per
    mined channel, run-length medians, per-(channel, variation) vocabularies,
    the feature schema with pruning masks, and whether each output row gets
    its group's mean feature vector appended (centroids)."""

    config: PipelineConfig
    channels: tuple[str, ...]
    n_training_series: int
    discretizers: dict[str, Discretizer]
    rcsm_medians: dict[str, dict[int, int]]
    vocabularies: dict[tuple[str, Variation], Vocabulary]
    schema: FeatureSchema
    centroids: bool = False

    @property
    def mined_channels(self) -> tuple[str, ...]:
        return mined_channels_of(self.channels, self.config.multivariate_mode)

    def pattern_counts(self) -> tuple[int, int]:
        """(patterns mined, patterns emitted as columns after the support
        filter)."""
        identified = sum(len(v.rules) for v in self.vocabularies.values())
        emitted = sum(1 for c in self.schema.columns if c.is_pattern)
        return identified, emitted

    def output_names(self) -> tuple[str, ...]:
        names = self.schema.final_names()
        if self.centroids:
            names = names + tuple(CENTROID_PREFIX + n for n in names)
        return names


def mined_channels_of(channels: tuple[str, ...],
                      mode: MultivariateMode) -> tuple[str, ...]:
    """The channels mined: the series' own, or the one collapsed channel."""
    if mode is MultivariateMode.WHITEN_COLLAPSE:
        return (COLLAPSED_CHANNEL,)
    return channels


def _streams(dataset: Dataset, mode: MultivariateMode,
             channels: tuple[str, ...], windows: Sequence[int]
             ) -> dict[int, dict[str, list[np.ndarray]]]:
    """Per W of windows and mined channel, each series' PAA stream in
    dataset order. Each series is normalized (or whitened and collapsed)
    once, against its own statistics only, with its columns read in the
    order of channels; only PAA runs per W."""
    cols = [dataset.channels.index(ch) for ch in channels]
    streams = {W: {ch: [] for ch in mined_channels_of(channels, mode)}
               for W in windows}
    for ts in dataset:
        try:
            if mode is MultivariateMode.WHITEN_COLLAPSE:
                normalized = [collapse_series(ts.values.take(cols, axis=1),
                                              ts.mask.take(cols, axis=1))]
            else:
                normalized = [zscore_normalize(ts.values[:, j], ts.mask[:, j])
                              for j in cols]
        except NumericError as exc:
            raise NumericError(f"series {ts.id!r}: {exc}") from None
        for W, parts in streams.items():
            for part, values in zip(parts.values(), normalized):
                part.append(paa(values, W))
    return streams


def _symbols(streams: dict[str, list[np.ndarray]], config: PipelineConfig,
             discretizers: dict[str, Discretizer] | None = None
             ) -> tuple[dict[str, Corpus], dict[str, Discretizer]]:
    """Base-symbol corpus of every series per mined channel, and the
    discretizers, fitted on each channel's pooled streams when none are
    given."""
    pools = {ch: np.concatenate(part) for ch, part in streams.items()}
    if discretizers is None:
        discretizers = {ch: fit_discretizer(pool, config.K, config.iqr_multiplier)
                        for ch, pool in pools.items()}
    first = next(iter(streams.values()))
    series = np.repeat(np.arange(len(first)), [p.size for p in first])
    return ({ch: Corpus(apply_discretizer(pool, discretizers[ch]), series,
                        len(first))
             for ch, pool in pools.items()}, discretizers)


def _views(symbols: dict[str, Corpus], config: PipelineConfig,
           medians: dict[str, dict[int, int]]) -> Iterator[tuple[tuple[str, Variation], Corpus]]:
    """Each (channel, variation) with the corpus of that view, built one at
    a time so that only one view is held at once."""
    for ch, corpus in symbols.items():
        for variation in config.variations:
            yield (ch, variation), view(corpus, variation, medians[ch], config.K)[0]


def _check_channels(dataset: Dataset, channels: tuple[str, ...]) -> None:
    """A dataset to transform must be non-empty and hold exactly the model's
    channels, in any order."""
    if len(dataset) == 0:
        raise DataError("dataset has no series")
    have, want = set(dataset.channels), set(channels)
    problems = [f"{what} channels {sorted(names)}"
                for what, names in (("missing", want - have),
                                    ("unknown", have - want)) if names]
    if problems:
        raise DataError("channel mismatch with model: " + "; ".join(problems))


def _require_group_ids(dataset: Dataset) -> None:
    """Centroid augmentation needs a group id on every series."""
    require_group_ids((f"series {ts.id!r}" for ts in dataset),
                      (ts.group_id for ts in dataset),
                      "centroid augmentation requires one per series")


def fit_pipeline(dataset: Dataset, config: PipelineConfig,
                 centroids: bool = False) -> tuple[FittedModel, FeatureMatrix]:
    """Fit the full pipeline on a training dataset.

    Returns the fitted model and the training feature matrix (rows in dataset
    order). With centroids=True every series needs a group id; each row then
    gets its group's mean feature vector appended.
    """
    if len(dataset) == 0:
        raise DataError("cannot fit on an empty dataset")
    if centroids:
        _require_group_ids(dataset)
    return _fit(dataset, config, centroids,
                _streams(dataset, config.multivariate_mode, dataset.channels,
                         [config.W])[config.W])


def _fit(dataset: Dataset, config: PipelineConfig, centroids: bool,
         streams: dict[str, list[np.ndarray]]) -> tuple[FittedModel, FeatureMatrix]:
    """fit_pipeline on a checked dataset whose _streams at config.W are
    given."""
    n = len(dataset)
    symbols, discretizers = _symbols(streams, config)
    rcsm_medians = {ch: fit_rcsm_medians(corpus)
                    if Variation.RCSM in config.variations else {}
                    for ch, corpus in symbols.items()}

    vocabularies, encoded = {}, {}
    for key, corpus in _views(symbols, config, rcsm_medians):
        vocabularies[key], encoded[key] = fit_bpe(
            corpus, config.base_size(key[1]), P=config.P, U=config.U)

    schema = build_schema(tuple(symbols), config.variations, vocabularies, n,
                          config.P, config.K)
    raw = assemble_matrix(n, encoded, schema)

    n_cols = len(schema.columns)
    # Pruning statistics are undefined for a single row; it keeps everything.
    variance_kept = final_kept = np.ones(n_cols, dtype=bool)
    values = raw
    if n >= 2:
        surviving, variance_kept = drop_zero_variance(raw)
        values, kept = prune_correlated(surviving, config.correlation_threshold)
        final_kept = np.zeros(n_cols, dtype=bool)
        final_kept[np.flatnonzero(variance_kept)[kept]] = True
    schema.variance_kept = tuple(bool(b) for b in variance_kept)
    schema.final_kept = tuple(bool(b) for b in final_kept)

    model = FittedModel(config=config, channels=dataset.channels,
                        n_training_series=n,
                        discretizers=discretizers, rcsm_medians=rcsm_medians,
                        vocabularies=vocabularies, schema=schema,
                        centroids=centroids)
    return model, FeatureMatrix(ids=dataset.ids, names=model.output_names(),
                                values=_output_values(model, dataset, values))


def transform_dataset(model: FittedModel, dataset: Dataset) -> FeatureMatrix:
    """Apply a fitted model to new series, reproducing the training matrix
    bit-exactly on the training data.

    Channels must match the model's (order is fixed up automatically). When
    the model was fitted with centroid augmentation, every series needs a
    group id; centroids are the group means over the rows being transformed.
    """
    _check_channels(dataset, model.channels)
    if model.centroids:
        _require_group_ids(dataset)
    config = model.config
    return _transform(model, dataset,
                      _streams(dataset, config.multivariate_mode,
                               model.channels, [config.W])[config.W])


def _transform(model: FittedModel, dataset: Dataset,
               streams: dict[str, list[np.ndarray]]) -> FeatureMatrix:
    """transform_dataset on a checked dataset whose _streams at the model's
    W are given."""
    symbols, _ = _symbols(streams, model.config, model.discretizers)
    encoded = {key: encode_corpus(corpus, model.vocabularies[key])
               for key, corpus in _views(symbols, model.config,
                                         model.rcsm_medians)}
    raw = assemble_matrix(len(dataset), encoded, model.schema)
    values = raw[:, np.asarray(model.schema.final_kept, dtype=bool)]
    return FeatureMatrix(ids=dataset.ids, names=model.output_names(),
                         values=_output_values(model, dataset, values))


def _output_values(model: FittedModel, dataset: Dataset,
                   values: np.ndarray) -> np.ndarray:
    """The pruned values and, with centroids, each row's group mean over
    the rows of dataset appended."""
    if not model.centroids:
        return values
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
    the view's source runs and the PAA window. These matches are not the
    tokens the feature counts after encoding, where other rules may have
    taken some of their symbols first.
    """
    _check_channels(dataset, model.channels)
    config = model.config
    streams = _streams(dataset, config.multivariate_mode, model.channels,
                       [config.W])[config.W]
    symbols, _ = _symbols(streams, config, model.discretizers)
    ids = dataset.ids
    length = [ts.length for ts in dataset]
    by_view: dict[tuple[str, Variation], list[FeatureDescriptor]] = {}
    for desc in descriptors:
        by_view.setdefault((desc.channel, desc.variation), []).append(desc)
    result: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for (channel, variation), descs in by_view.items():
        base = symbols[channel]
        corpus, lo, hi = view(base, variation, model.rcsm_medians[channel],
                              config.K)
        # Flat index of each series' first base symbol.
        offset = np.cumsum(base.lengths()) - base.lengths()
        for desc in descs:
            m = len(desc.decoded)
            result[desc.name] = per_series = {}
            for t in _occurrences(corpus.tokens, corpus.series, desc.decoded):
                s = int(corpus.series[t])
                span = (int(lo[t] - offset[s]) * config.W,
                        min(int(hi[t + m - 1] - offset[s]) * config.W,
                            length[s]))
                per_series.setdefault(ids[s], []).append(span)
    return {desc.name: result[desc.name] for desc in descriptors}
