"""Domain types: series, datasets, configuration, symbolic sequences."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError


class Variation(enum.Enum):
    """Derived views of a discretized series that are mined independently.

    Definition order is the canonical order used for feature assembly.
    """

    ORIGINAL = "original"
    RCS = "rcs"
    RCSM = "rcsm"
    AUTOREGRESSIVE = "autoregressive"


ALL_VARIATIONS: tuple[Variation, ...] = tuple(Variation)


def parse_variation(name: str) -> Variation:
    try:
        return Variation(name.strip().lower())
    except ValueError:
        raise DataError(f"unknown variation {name!r}; expected one of "
                        + ", ".join(sorted(v.value for v in Variation))) from None


class MultivariateMode(enum.Enum):
    """How multichannel series are handled: mined per channel, or whitened and
    collapsed to a single magnitude stream before mining."""

    PER_CHANNEL = "per_channel"
    WHITEN_COLLAPSE = "whiten_collapse"


def parse_multivariate_mode(name: str) -> MultivariateMode:
    try:
        return MultivariateMode(name.strip().lower())
    except ValueError:
        raise DataError(f"unknown multivariate mode {name!r}") from None


def require_group_ids(names: Iterable[str], group_ids: Iterable[str | None],
                      need: str) -> None:
    """Raise a DataError naming the first of names whose group id is None
    or "", followed by need (why one is needed)."""
    for name, gid in zip(names, group_ids):
        if gid is None or gid == "":
            raise DataError(f"{name} has no group id; {need}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One labeled time series: a (length x channels) value matrix plus an
    observation mask of the same shape.

    Entries with mask False are unobserved and hold 0.0; the constructor
    enforces this fill. Arrays are made read-only after construction.
    """

    id: str
    channels: tuple[str, ...]
    values: np.ndarray
    mask: np.ndarray
    group_id: str | None = None
    label: str | float | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2:
            raise DataError(f"series {self.id!r}: values must be 1-D or 2-D")
        if values.shape[0] < 1:
            raise DataError(f"series {self.id!r}: length must be >= 1")
        channels = tuple(self.channels)
        if len(channels) != values.shape[1] or not channels:
            raise DataError(f"series {self.id!r}: {len(channels)} channel names "
                            f"for {values.shape[1]} value columns")
        if len(set(channels)) != len(channels):
            raise DataError(f"series {self.id!r}: channel names {channels} "
                            f"are not distinct")
        if self.mask is None:
            mask = np.ones(values.shape, dtype=bool)
        else:
            mask = np.array(self.mask, dtype=bool, copy=True)
            if mask.ndim == 1:
                mask = mask.reshape(-1, 1)
            if mask.shape != values.shape:
                raise DataError(f"series {self.id!r}: mask shape {mask.shape} "
                                f"!= values shape {values.shape}")
        if not np.all(np.isfinite(values[mask])):
            raise DataError(f"series {self.id!r}: non-finite observed value")
        values[~mask] = 0.0
        values.flags.writeable = False
        mask.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "channels", channels)

    @classmethod
    def univariate(cls, id: str, values, mask=None, channel: str = "value",
                   group_id: str | None = None, label=None) -> "TimeSeries":
        return cls(id=id, channels=(channel,), values=np.asarray(values, dtype=np.float64),
                   mask=mask, group_id=group_id, label=label)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    def observed_timesteps(self) -> int:
        """Timesteps with at least one observed channel."""
        return int(np.any(self.mask, axis=1).sum())

    def with_annotations(self, group_id=None, label=None) -> "TimeSeries":
        return TimeSeries(id=self.id, channels=self.channels, values=self.values,
                          mask=self.mask,
                          group_id=self.group_id if group_id is None else group_id,
                          label=self.label if label is None else label)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of series with consistent channel layout.

    Insertion order is canonical: feature matrices keep this row order.
    """

    series: tuple[TimeSeries, ...]

    def __post_init__(self) -> None:
        series = tuple(self.series)
        object.__setattr__(self, "series", series)
        seen: set[str] = set()
        for ts in series:
            if ts.id in seen:
                raise DataError(f"duplicate series id {ts.id!r}")
            seen.add(ts.id)
        if series:
            channels = series[0].channels
            for ts in series[1:]:
                if ts.channels != channels:
                    raise DataError(f"series {ts.id!r}: channels {ts.channels} "
                                    f"differ from {channels}")

    @property
    def channels(self) -> tuple[str, ...]:
        return self.series[0].channels if self.series else ()

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(ts.id for ts in self.series)

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self.series)


def ingest_filter(dataset: Dataset, min_observed: int) -> Dataset:
    """Drop series with fewer than min_observed observed timesteps.

    A timestep counts as observed when any channel is observed there.
    Keeps the original order; applying the filter twice is a no-op.
    """
    if min_observed < 0:
        raise DataError("min_observed must be >= 0")
    kept = tuple(ts for ts in dataset.series
                 if ts.observed_timesteps() >= min_observed)
    return Dataset(series=kept)


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters for one pattern-discovery run.

    K: alphabet size (number of value bins), 2..100.
    W: aggregation window length in samples, 1..15.
    P: minimum fraction of training series a pattern must appear in.
    U: frequency floor as a fraction of the initial pair-slot count.
    """

    K: int
    W: int
    P: float = 0.20
    U: float = 0.001
    correlation_threshold: float = 0.95
    iqr_multiplier: float = 1.5
    variations: tuple[Variation, ...] = ALL_VARIATIONS
    multivariate_mode: MultivariateMode = MultivariateMode.PER_CHANNEL

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int, np.integer)) or isinstance(self.K, bool):
            raise DataError("K must be an integer")
        if not isinstance(self.W, (int, np.integer)) or isinstance(self.W, bool):
            raise DataError("W must be an integer")
        if not 2 <= self.K <= 100:
            raise DataError(f"K must be in [2, 100], got {self.K}")
        if not 1 <= self.W <= 15:
            raise DataError(f"W must be in [1, 15], got {self.W}")
        if not 0.0 < self.P < 1.0:
            raise DataError(f"P must be in (0, 1), got {self.P}")
        if not 0.0 < self.U < 1.0:
            raise DataError(f"U must be in (0, 1), got {self.U}")
        if not 0.0 < self.correlation_threshold <= 1.0:
            raise DataError("correlation_threshold must be in (0, 1]")
        if not 0.0 < self.iqr_multiplier < np.inf:
            raise DataError("iqr_multiplier must be in (0, inf), got "
                            f"{self.iqr_multiplier}")
        if not self.variations:
            raise DataError("at least one variation is required")
        # Normalize to canonical enum order, dropping duplicates.
        chosen = set(self.variations)
        ordered = tuple(v for v in Variation if v in chosen)
        object.__setattr__(self, "variations", ordered)
        if not isinstance(self.multivariate_mode, MultivariateMode):
            raise DataError("multivariate_mode must be a MultivariateMode")

    def base_size(self, variation: Variation) -> int:
        """Base alphabet size of one view: K bins, or the 2K-1 possible
        steps of the autoregressive view."""
        return 2 * self.K - 1 if variation is Variation.AUTOREGRESSIVE else self.K
