"""End-to-end model fitting and application.

Fitting: normalize each series, aggregate with PAA, fit dataset-level bin
edges per mined channel, derive the configured variations, and learn one
merge vocabulary per (channel, variation). Features are the length-normalized
occurrence counts of base symbols and supported patterns in each series'
final token stream, pruned of zero-variance and highly correlated columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Dataset, MultivariateMode, PipelineConfig, TimeSeries,
                   Variation)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import DataError
from .features import (CENTROID_PREFIX, FeatureDescriptor, FeatureMatrix,
                       FeatureSchema, assemble_matrix, build_schema,
                       centroid_augment, drop_zero_variance, prune_correlated)
from .bpe import Vocabulary, encode_corpus, fit_bpe
from .preprocess import collapse_series, paa, zscore_normalize
from .variations import (RcsmMedians, apply_autoregressive, apply_rcs,
                         apply_rcsm, fit_rcsm_medians, offset_encode,
                         run_lengths)

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
    rcsm_medians: dict[str, RcsmMedians]
    vocabularies: dict[tuple[str, Variation], Vocabulary]
    schema: FeatureSchema
    centroid_table: dict[str, np.ndarray] | None = None

    def base_size(self, variation: Variation) -> int:
        return self.config.base_size(variation)

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


def variation_sequence(original: np.ndarray, variation: Variation,
                       medians: RcsmMedians, K: int) -> list[int]:
    """Derive one variation's symbol sequence in miner (nonnegative) space."""
    if variation is Variation.ORIGINAL:
        return [int(s) for s in original]
    if variation is Variation.RCS:
        return apply_rcs(original)
    if variation is Variation.RCSM:
        return apply_rcsm(original, medians)
    if variation is Variation.AUTOREGRESSIVE:
        return offset_encode(apply_autoregressive(original), K)
    raise DataError(f"unhandled variation {variation}")


def _discretize(streams: list[dict[str, np.ndarray]], mined: tuple[str, ...],
                discretizers: dict[str, Discretizer]) -> list[dict[str, np.ndarray]]:
    """Base-symbol sequence per series and mined channel."""
    return [{ch: apply_discretizer(s[ch], discretizers[ch]) for ch in mined}
            for s in streams]


def _view_corpora(original: list[dict[str, np.ndarray]],
                  mined: tuple[str, ...], config: PipelineConfig,
                  medians: dict[str, RcsmMedians]) -> dict[tuple[str, Variation], list[list[int]]]:
    """Per (channel, variation), every series' symbol sequence in that view."""
    return {(ch, variation): [variation_sequence(o[ch], variation, medians[ch],
                                                 config.K) for o in original]
            for ch in mined for variation in config.variations}


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

    original = _discretize(streams, mined, discretizers)

    rcsm_medians: dict[str, RcsmMedians] = {}
    for ch in mined:
        if Variation.RCSM in config.variations:
            rcsm_medians[ch] = fit_rcsm_medians(o[ch] for o in original)
        else:
            rcsm_medians[ch] = RcsmMedians()

    corpora = _view_corpora(original, mined, config, rcsm_medians)
    vocabularies = {
        (ch, variation): fit_bpe(corpus, config.base_size(variation),
                                 n_series=n, P=config.P, U=config.U)
        for (ch, variation), corpus in corpora.items()}
    encoded = {key: encode_corpus(corpus, vocabularies[key])
               for key, corpus in corpora.items()}

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
    corpora = _view_corpora(_discretize(streams, model.mined_channels,
                                        model.discretizers),
                            model.mined_channels, model.config,
                            model.rcsm_medians)
    encoded = {key: encode_corpus(corpus, model.vocabularies[key])
               for key, corpus in corpora.items()}
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


def _variation_token_spans(original: np.ndarray, variation: Variation,
                           medians: RcsmMedians, K: int) -> tuple[list[int], list[int], list[int]]:
    """Variation sequence plus, per token, the half-open PAA index range it
    covers: (sequence, starts, ends)."""
    seq = variation_sequence(original, variation, medians, K)
    if variation in (Variation.ORIGINAL, Variation.AUTOREGRESSIVE):
        width = 2 if variation is Variation.AUTOREGRESSIVE else 1
        starts = list(range(len(seq)))
        return seq, starts, [t + width for t in starts]
    # Run-collapsed views: each run yields one token, or two under RCSM when
    # it is longer than the symbol's median (the rule apply_rcsm follows).
    starts: list[int] = []
    ends: list[int] = []
    for sym, start, length in run_lengths(original):
        copies = 2 if (variation is Variation.RCSM
                       and length > medians.median_for(sym)) else 1
        starts += [start] * copies
        ends += [start + length] * copies
    return seq, starts, ends


def _find_occurrences(seq: list[int], pattern: list[int]) -> list[int]:
    """Non-overlapping left-to-right matches of pattern inside seq."""
    hits: list[int] = []
    m = len(pattern)
    if m == 0:
        return hits
    i = 0
    limit = len(seq) - m
    while i <= limit:
        if seq[i:i + m] == pattern:
            hits.append(i)
            i += m
        else:
            i += 1
    return hits


def pattern_spans(model: FittedModel, dataset: Dataset,
                  descriptors: list[FeatureDescriptor]) -> dict[str, dict[str, list[tuple[int, int]]]]:
    """Occurrence spans of the given features in original sample coordinates.

    For each feature, each series gets the half-open [start, end) index
    ranges where the decoded base-symbol sequence matches the series'
    variation stream (non-overlapping, left to right), mapped back through
    the run-length bookkeeping and the PAA window.
    """
    dataset = _align_channels(dataset, model.channels)
    needed: dict[tuple[str, Variation], list[FeatureDescriptor]] = {}
    for desc in descriptors:
        needed.setdefault((desc.channel, desc.variation), []).append(desc)
    result: dict[str, dict[str, list[tuple[int, int]]]] = {d.name: {} for d in descriptors}
    W = model.config.W
    for ts in dataset:
        [original] = _discretize([_paa_streams(ts, model.config)],
                                 model.mined_channels, model.discretizers)
        for (ch, variation), descs in needed.items():
            seq, starts, ends = _variation_token_spans(
                original[ch], variation, model.rcsm_medians[ch], model.config.K)
            for desc in descs:
                pattern = list(desc.decoded)
                hits = _find_occurrences(seq, pattern)
                if not hits:
                    continue
                spans = []
                for t in hits:
                    lo = starts[t] * W
                    hi = min(ends[t + len(pattern) - 1] * W, ts.length)
                    spans.append((lo, hi))
                result[desc.name][ts.id] = spans
    return result
