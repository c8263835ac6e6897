"""Feature schema, matrix assembly, pruning, and ranking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Variation, require_group_ids
from .errors import DataError
from .bpe import Corpus, Vocabulary

# Population variance below this counts as zero.
VARIANCE_FLOOR = 1e-15

# Columns screened by one Gram product in prune_correlated.
_GRAM_BLOCK = 64

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
    final_kept is the subset that survives both pruning stages. build_schema
    leaves them None; fitting and loading always set both.
    """

    columns: tuple[FeatureDescriptor, ...]
    variance_kept: tuple[bool, ...] | None = None
    final_kept: tuple[bool, ...] | None = None

    def final_columns(self) -> tuple[FeatureDescriptor, ...]:
        return tuple(c for c, keep in zip(self.columns, self.final_kept) if keep)

    def final_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.final_columns())


@dataclass(eq=False)
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
            for sym in [*range(vocab.base_size),
                        *(rule.new_symbol for rule in vocab.rules
                          if rule.train_series_support >= min_support)]:
                pattern = sym >= vocab.base_size
                cols.append(FeatureDescriptor(
                    channel=channel, variation=variation, symbol=sym,
                    decoded=vocab.decode(sym),
                    name=feature_name(channel, variation, sym, pattern, K),
                    is_pattern=pattern))
    return FeatureSchema(columns=tuple(cols))


def assemble_matrix(n: int, encoded: dict[tuple[str, Variation], Corpus],
                    schema: FeatureSchema) -> np.ndarray:
    """The (n x columns) per-series occurrence counts of each column's
    symbol in the final token streams, divided by the series' token count,
    over schema.columns.

    encoded maps each (channel, variation) to the encoded corpus of the n
    series. Symbols consumed by merges are not double counted, and a series
    with no tokens gets zeros.
    """
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
    return values


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
    Pearson correlation with any already-kept column exceeds the threshold;
    the first is always kept. Expects zero-variance columns to be removed
    beforehand.

    The exact check defines the rule: max |unit[:, kept].T @ unit[:, j]| >
    threshold, with unit the centered columns over their norms. Each block
    of _GRAM_BLOCK columns is first screened by one product,
    |unit[:, :e].T @ unit[:, b:e]|: a column whose largest screened value
    over the kept columns lies more than tol = 4*n*eps from the threshold
    is decided by it, and only the rest take the exact check. Both compute
    dot products of the same unit columns of length n, each within about
    n*eps/2 of the true value (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), so they differ by less than tol.
    """
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    unit = values - values.mean(axis=0)
    norms = np.sqrt((unit * unit).sum(axis=0))
    if np.any(norms == 0.0):
        raise DataError("prune_correlated requires zero-variance columns to be "
                        "removed first")
    unit /= norms
    tol = 4 * n * np.finfo(np.float64).eps
    kept_idx: list[int] = []
    kept = np.zeros(f, dtype=bool)
    for b in range(0, f, _GRAM_BLOCK):
        e = min(b + _GRAM_BLOCK, f)
        gram = unit[:, :e].T @ unit[:, b:e]
        np.abs(gram, out=gram)
        # No column of [b, e) is kept yet, so these are the rows before b.
        best = gram[kept[:e]].max(axis=0, initial=0.0)
        for j in range(b, e):
            if kept_idx:
                screen = best[j - b]
                if screen > threshold + tol:
                    continue
                if not screen < threshold - tol:
                    corrs = unit[:, kept_idx].T @ unit[:, j]
                    if np.max(np.abs(corrs)) > threshold:
                        continue
            kept_idx.append(j)
            kept[j] = True
            np.maximum(best, gram[j], out=best)
    del unit  # one n x f array fewer while the kept columns are gathered
    return values[:, kept], kept


def centroid_augment(values: np.ndarray, group_ids: Sequence[str | None]) -> np.ndarray:
    """Append each row's group centroid (the mean feature vector over the
    rows of values sharing its group id) to the row. Output has twice the
    columns. A row without a group id is a hard error.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(group_ids) != values.shape[0]:
        raise DataError("group_ids length does not match row count")
    require_group_ids((f"row {i}" for i in range(len(group_ids))), group_ids,
                      "centroid augmentation requires one per row")
    rows_by_group: dict[str, list[int]] = {}
    for i, gid in enumerate(group_ids):
        rows_by_group.setdefault(str(gid), []).append(i)
    centroids = np.empty_like(values)
    for rows in rows_by_group.values():
        centroids[rows] = values[rows].mean(axis=0)
    return np.hstack([values, centroids])


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
