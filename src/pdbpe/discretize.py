"""Dataset-level equal-width discretization with IQR outlier fencing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError


@dataclass(frozen=True)
class Discretizer:
    """Equal-width binning fitted on pooled training values.

    edges has K+1 finite, non-decreasing entries with edges[0] < edges[-1];
    bin width is (edges[-1] - edges[0]) / K.
    Application is total: values outside the fitted range are clamped into
    the extreme bins.
    """

    K: int
    lower_fence: float
    upper_fence: float
    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        # np.linspace over a tiny range may repeat an edge, so equal
        # neighbours are allowed; only the whole range must be positive.
        if (self.K < 1 or edges.shape != (self.K + 1,)
                or not np.all(np.isfinite(edges))
                or np.any(edges[1:] < edges[:-1]) or not edges[0] < edges[-1]):
            raise DataError(f"bin edges must be {self.K + 1} finite, "
                            f"non-decreasing values with first < last")
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def width(self) -> float:
        return (self.edges[-1] - self.edges[0]) / self.K

    def bin_bounds(self, symbol: int) -> tuple[float, float]:
        """Value range [lo, hi) covered by a base symbol."""
        if not 0 <= symbol < self.K:
            raise ValueError(f"symbol {symbol} outside [0, {self.K})")
        lo = self.edges[0] + symbol * self.width
        return (lo, lo + self.width)


def fit_discretizer(values, K: int, iqr_multiplier: float = 1.5) -> Discretizer:
    """Fit bin edges on pooled training values.

    Outliers beyond [Q1 - m*IQR, Q3 + m*IQR] are set aside before the edges
    are placed; quartiles use linear interpolation at position (n-1)*q.
    The K+1 edges are spaced evenly over [min, max] of the in-fence values.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise NumericError("cannot fit a discretizer on an empty value pool")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite value in discretizer training pool")
    q1, q3 = np.quantile(values, [0.25, 0.75])
    iqr = q3 - q1
    lower = q1 - iqr_multiplier * iqr
    upper = q3 + iqr_multiplier * iqr
    in_fence = values[(values >= lower) & (values <= upper)]
    lo = float(in_fence.min())
    hi = float(in_fence.max())
    if not lo < hi:
        raise NumericError(
            f"discretizer needs at least 2 distinct in-fence values; "
            f"fenced range is [{lo:.6g}, {hi:.6g}]")
    edges = np.linspace(lo, hi, K + 1)
    return Discretizer(K=K, lower_fence=float(lower), upper_fence=float(upper),
                       edges=edges)


def apply_discretizer(values, disc: Discretizer) -> np.ndarray:
    """Map values to bin symbols: clamp(floor((v - edges[0]) / width), 0, K-1).

    Accepts a scalar or an array; the int64 output has the input's shape.
    Values outside the fitted range land in the extreme bins, so the map
    is total.
    """
    arr = np.asarray(values, dtype=np.float64)
    raw = np.floor((arr - disc.edges[0]) / disc.width)
    return np.clip(raw, 0, disc.K - 1).astype(np.int64)
