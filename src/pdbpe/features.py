"""Feature schema, matrix assembly, pruning, and ranking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Variation
from .errors import DataError
from .bpe import Corpus, Vocabulary

# Population variance below this counts as zero.
VARIANCE_FLOOR = 1e-15

CENTROID_PREFIX = "centroid."


@dataclass(frozen=True)
class FeatureDescriptor:
    """One feature column: a base symbol or a mined pattern of one
    (channel, variation) stream.

    symbol and decoded are in the miner's internal (nonnegative) space; for
    the step-difference variation the display form is shifted back to signed
    values. Names look like "hr.rcs.P17" (pattern) or "hr.original.S3"
    (base symbol).
    """

    channel: str
    variation: Variation
    symbol: int
    decoded: tuple[int, ...]
    name: str
    is_pattern: bool


def feature_name(channel: str, variation: Variation, symbol: int,
                 is_pattern: bool, K: int) -> str:
    if is_pattern:
        return f"{channel}.{variation.value}.P{symbol}"
    shown = symbol - (K - 1) if variation is Variation.AUTOREGRESSIVE else symbol
    return f"{channel}.{variation.value}.S{shown}"


@dataclass
class FeatureSchema:
    """Ordered feature columns plus pruning bookkeeping.

    columns holds every emitted column (all base symbols, then patterns whose
    training series support reached N*P, per channel/variation in canonical
    order). variance_kept and final_kept are parallel masks over columns;
    final_kept is the subset that survives both pruning stages.
    """

    columns: tuple[FeatureDescriptor, ...]
    variance_kept: tuple[bool, ...] | None = None
    final_kept: tuple[bool, ...] | None = None

    def final_columns(self) -> tuple[FeatureDescriptor, ...]:
        if self.final_kept is None:
            return self.columns
        return tuple(c for c, keep in zip(self.columns, self.final_kept) if keep)

    def final_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.final_columns())


@dataclass
class FeatureMatrix:
    """Row-per-series feature values with column names."""

    ids: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError("feature values must be 2-D")
        if self.values.shape != (len(self.ids), len(self.names)):
            raise DataError(f"feature matrix shape {self.values.shape} does not "
                            f"match {len(self.ids)} ids x {len(self.names)} names")


def build_schema(channels: Sequence[str], variations: Sequence[Variation],
                 vocabs: dict[tuple[str, Variation], Vocabulary],
                 n_series: int, P: float, K: int) -> FeatureSchema:
    """Emit columns per (channel, variation): every base symbol, then each
    pattern whose training support reached n_series * P, in rule order."""
    min_support = n_series * P
    cols: list[FeatureDescriptor] = []
    for channel in channels:
        for variation in variations:
            vocab = vocabs[(channel, variation)]
            for sym in range(vocab.base_size):
                cols.append(FeatureDescriptor(
                    channel=channel, variation=variation, symbol=sym,
                    decoded=(sym,),
                    name=feature_name(channel, variation, sym, False, K),
                    is_pattern=False))
            for rule in vocab.rules:
                if rule.train_series_support >= min_support:
                    cols.append(FeatureDescriptor(
                        channel=channel, variation=variation,
                        symbol=rule.new_symbol,
                        decoded=vocab.decode(rule.new_symbol),
                        name=feature_name(channel, variation, rule.new_symbol,
                                          True, K),
                        is_pattern=True))
    return FeatureSchema(columns=tuple(cols))


def assemble_matrix(ids: Sequence[str], encoded: dict[tuple[str, Variation], Corpus],
                    schema: FeatureSchema) -> FeatureMatrix:
    """Per-series occurrence counts of each column's symbol in the final
    token streams, divided by the series' token count, over schema.columns.

    encoded maps each (channel, variation) to the encoded corpus of the
    series in ids, in that order. Symbols consumed by merges are not double
    counted, and a series with no tokens gets zeros.
    """
    n = len(ids)
    values = np.zeros((n, len(schema.columns)), dtype=np.float64)
    begin = 0
    for key, group in itertools.groupby(schema.columns,
                                        key=lambda c: (c.channel, c.variation)):
        syms = np.array([c.symbol for c in group])
        m = syms.size
        corpus = encoded.get(key)
        if corpus is None or corpus.n_series != n:
            raise DataError(f"missing encoded sequences for channel "
                            f"{key[0]!r} variation {key[1].value!r}")
        # Token -> column of this block, -1 for a token without a column; a
        # column symbol that no token reaches stays all zeros.
        column = np.full(1 + int(corpus.tokens.max(initial=-1)), -1)
        inside = (syms >= 0) & (syms < column.size)
        column[syms[inside]] = np.flatnonzero(inside)
        cols = column[corpus.tokens]
        hit = cols >= 0
        counts = np.bincount(corpus.series[hit] * m + cols[hit],
                             minlength=n * m).reshape(n, m)
        lengths = corpus.lengths()[:, None]
        np.divide(counts, lengths, out=values[:, begin:begin + m],
                  where=lengths > 0)
        begin += m
    return FeatureMatrix(ids=tuple(ids),
                         names=tuple(c.name for c in schema.columns),
                         values=values)


def drop_zero_variance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove columns whose population variance is below 1e-15.

    Returns (pruned_values, kept_mask over the input columns).
    """
    values = np.asarray(values, dtype=np.float64)
    variances = values.var(axis=0)
    kept = variances >= VARIANCE_FLOOR
    return values[:, kept], kept


def prune_correlated(values: np.ndarray, threshold: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Greedy keep-first pruning of highly correlated columns.

    Walking columns in canonical order, a column is dropped when its absolute
    Pearson correlation with any already-kept column exceeds the threshold.
    Expects zero-variance columns to be removed beforehand.
    """
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    centered = values - values.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    if np.any(norms == 0.0):
        raise DataError("prune_correlated requires zero-variance columns to be "
                        "removed first")
    unit = centered / norms
    kept_idx: list[int] = []
    kept = np.zeros(f, dtype=bool)
    for j in range(f):
        if kept_idx:
            corrs = unit[:, kept_idx].T @ unit[:, j]
            if np.max(np.abs(corrs)) > threshold:
                continue
        kept_idx.append(j)
        kept[j] = True
    return values[:, kept], kept


def centroid_augment(values: np.ndarray, group_ids: Sequence[str | None]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Append each row's group centroid (the mean feature vector over rows
    sharing its group id) to the row. Output has twice the columns. A row
    without a group id is a hard error.

    Returns (augmented_values, group -> centroid table).
    """
    values = np.asarray(values, dtype=np.float64)
    if len(group_ids) != values.shape[0]:
        raise DataError("group_ids length does not match row count")
    rows_by_group: dict[str, list[int]] = {}
    for i, gid in enumerate(group_ids):
        if gid is None or gid == "":
            raise DataError(f"row {i} has no group id; centroid augmentation "
                            "requires one per row")
        rows_by_group.setdefault(str(gid), []).append(i)
    table = {gid: values[rows].mean(axis=0) for gid, rows in rows_by_group.items()}
    centroids = np.empty_like(values)
    for gid, rows in rows_by_group.items():
        centroids[rows] = table[gid]
    return np.hstack([values, centroids]), table


def anova_f_rank(values: np.ndarray, labels: Sequence[str],
                 names: Sequence[str] | None = None) -> list[tuple[str, float]]:
    """Rank columns by the one-way ANOVA F statistic against class labels.

    F = (between-class SS / (k-1)) / (within-class SS / (n-k)). A column with
    zero within-class scatter scores +inf when class means differ and 0 when
    everything is constant. Ties keep canonical column order.
    """
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    labels = [str(lab) for lab in labels]
    if len(labels) != n:
        raise DataError("labels length does not match row count")
    classes: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        classes.setdefault(lab, []).append(i)
    k = len(classes)
    if k < 2:
        raise DataError("anova_f_rank needs at least 2 classes")
    if n - k < 1:
        raise DataError("anova_f_rank needs more rows than classes")
    grand = values.mean(axis=0)
    ss_between = np.zeros(f)
    ss_within = np.zeros(f)
    for rows in classes.values():
        block = values[rows]
        mean = block.mean(axis=0)
        ss_between += len(rows) * (mean - grand) ** 2
        ss_within += ((block - mean) ** 2).sum(axis=0)
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (n - k)
    zero_within = ms_within <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = ms_between / ms_within
    scores[zero_within & (ms_between > 0.0)] = np.inf
    scores[zero_within & (ms_between <= 0.0)] = 0.0
    if names is None:
        names = [str(j) for j in range(f)]
    order = sorted(range(f), key=lambda j: (-scores[j], j))
    return [(str(names[j]), float(scores[j])) for j in order]
