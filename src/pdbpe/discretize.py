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


def _quartiles(values: np.ndarray) -> list[float]:
    """Q1 and Q3 of a non-empty array, as fit_discretizer states them."""
    n = values.size
    at = [(v, int(v), min(int(v) + 1, n - 1)) for v in ((n - 1) * 0.25, (n - 1) * 0.75)]
    # np.quantile's partition points, so that tied 0.0 and -0.0 land as in it.
    part = np.partition(values, sorted({0, -1}.union(*(p[1:] for p in at))))
    lerps = [(float(part[lo]), float(part[hi]), v - lo if lo < hi else 1.0) for v, lo, hi in at]
    return [a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g) for a, b, g in lerps]


def fit_discretizer(values, K: int, iqr_multiplier: float = 1.5) -> Discretizer:
    """Fit bin edges on pooled training values.

    Outliers beyond [Q1 - m*IQR, Q3 + m*IQR] are set aside, and the K+1 edges are
    spaced evenly over [min, max] of the in-fence values. Quartile q is numpy's
    "linear" rule in float64: with v = (n-1)*q, lo = floor(v), hi = min(lo+1, n-1),
    g = v - lo (1 if n = 1), a, b the lo-th and hi-th smallest values and d = b - a,
    it is a + d*g if g < 0.5, else b - d*(1-g).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise NumericError("cannot fit a discretizer on an empty value pool")
    if not np.all(np.isfinite(values)):
        raise NumericError("non-finite value in discretizer training pool")
    q1, q3 = _quartiles(values)
    iqr = q3 - q1
    lower = q1 - iqr_multiplier * iqr
    upper = q3 + iqr_multiplier * iqr
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise NumericError("values too large to discretize: fences overflow")
    in_fence = values[(values >= lower) & (values <= upper)]
    lo, hi = float(in_fence.min()), float(in_fence.max())
    if not lo < hi:
        raise NumericError(
            f"discretizer needs at least 2 distinct in-fence values; "
            f"fenced range is [{lo:.6g}, {hi:.6g}]")
    if not np.isfinite(hi - lo):
        raise NumericError("values too large to discretize: edges overflow")
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
