"""Per-series numeric preprocessing: z-normalization of one channel, whitening
of a multichannel series against its own covariance and its collapse to the
per-row norm, and piecewise aggregation."""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# Standard deviations below this are treated as zero (constant input).
_STD_FLOOR = 1e-12
# Relative ridge added to a covariance that is not positive definite as-is.
_COV_RIDGE = 1e-8


def zscore_normalize(values, mask) -> np.ndarray:
    """Normalize a 1-D sequence to zero mean and unit population std.

    Statistics are computed over observed (mask True) entries only; masked
    entries are set to 0.0 in the output, which equals the post-normalization
    mean. A constant sequence (std < 1e-12) or one with no observed entries
    comes back as all zeros. Values too large for a finite mean and std are
    a NumericError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("zscore_normalize expects a 1-D sequence")
    mask = np.asarray(mask, dtype=bool)
    observed = values[mask]
    if observed.size == 0:
        return np.zeros_like(values)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = observed.mean()
        std = observed.std()  # population convention (divide by n)
    # A mean that overflows makes the std non-finite as well.
    if not np.isfinite(std):
        raise NumericError("values too large to normalize: their mean or "
                           "standard deviation overflows")
    out = np.zeros_like(values)
    if std < _STD_FLOOR:
        return out
    out[mask] = (observed - mean) / std
    return out


def whiten(values, mask) -> np.ndarray:
    """Decorrelate the rows of a (length x channels) matrix against its own
    observed statistics.

    Channel means come from each channel's observed entries. Deviations from
    them, with unobserved entries held at 0 (the channel mean), give the
    population covariance, whose lower-triangular Cholesky factor L maps each
    deviation row d to the solution z of L z = d; the rows of z then have
    (near-)identity sample covariance. If the covariance is not positive
    definite as-is, a ridge of 1e-8 * trace/d is added to the diagonal; if it
    still fails, or values are too large for a finite covariance, whitening
    is a NumericError.
    """
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    n, d = values.shape
    mean = np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            col = values[mask[:, j], j]
            if col.size:
                mean[j] = col.mean()
        dev = np.where(mask, values - mean, 0.0)
        cov = dev.T @ dev / n
    if not np.isfinite(cov).all():
        raise NumericError("values too large to whiten: their covariance "
                           "overflows")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        ridged = cov + _COV_RIDGE * (np.trace(cov) / d) * np.eye(d)
        try:
            factor = np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            raise NumericError(
                "covariance is not positive definite even after ridge "
                f"regularization (trace={np.trace(cov):.6g}, d={d}); "
                "the series is degenerate") from None
    return np.linalg.solve(factor, dev.T).T


def collapse_series(values, mask) -> np.ndarray:
    """Whiten a multichannel series against its own statistics and collapse
    it to a 1-D magnitude stream, the Euclidean norm of each whitened row.
    Unobserved entries sit at the channel mean, so they contribute nothing
    to the whitened deviation."""
    z = whiten(values, mask)
    return np.sqrt((z * z).sum(axis=1))


def paa(values, W: int) -> np.ndarray:
    """Piecewise aggregate approximation with window W.

    Produces ceil(len / W) segment means; a trailing partial window is
    averaged over its actual size.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("paa expects a 1-D sequence")
    if W < 1:
        raise ValueError("W must be >= 1")
    n = values.size
    starts = np.arange(0, n, W)
    sums = np.add.reduceat(values, starts)
    sizes = np.minimum(starts + W, n) - starts
    return sums / sizes
