"""Normalization, whitening, and aggregation numerics."""

import numpy as np
import pytest

from pdbpe import NumericError
from pdbpe.preprocess import collapse_series, paa, whiten, zscore_normalize


def _all_observed(x):
    return np.ones(np.shape(x), dtype=bool)


def test_zscore_population_convention():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    z = zscore_normalize(x, _all_observed(x))
    assert abs(z.mean()) < 1e-12
    # Population std (divide by n), not the sample convention.
    assert abs(z.std() - 1.0) < 1e-12
    expected = (x - 2.5) / np.sqrt(1.25)
    assert np.allclose(z, expected)


def test_zscore_constant_series_is_zeros():
    x = np.full(5, 3.7)
    assert np.array_equal(zscore_normalize(x, _all_observed(x)), np.zeros(5))


def test_zscore_masked_entries():
    x = np.array([10.0, 999.0, 14.0])
    mask = np.array([True, False, True])
    z = zscore_normalize(x, mask)
    # Stats from the observed entries only; the masked slot becomes 0.
    assert z[1] == 0.0
    assert np.allclose(z[[0, 2]], [-1.0, 1.0])


def test_zscore_all_masked_is_zeros():
    z = zscore_normalize(np.array([1.0, 2.0]), np.array([False, False]))
    assert np.array_equal(z, np.zeros(2))


def test_zscore_randomized_properties():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.integers(2, 200)
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 10), size=n)
        z = zscore_normalize(x, _all_observed(x))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9


@pytest.mark.parametrize("values", [
    [1e200, -1e200, 0.0],       # the squared deviations overflow
    [1e308, 1e308],             # the sum behind the mean overflows
])
def test_zscore_values_too_large_are_numeric_error(values):
    with pytest.raises(NumericError, match="too large to normalize"):
        zscore_normalize(values, _all_observed(values))


def test_paa_exact_windows():
    x = np.array([1.0, 3.0, 2.0, 4.0, 5.0, 7.0])
    assert np.allclose(paa(x, 2), [2.0, 3.0, 6.0])


def test_paa_partial_tail_averaged_over_actual_size():
    x = np.array([1.0, 3.0, 2.0, 4.0, 10.0])
    out = paa(x, 2)
    assert np.allclose(out, [2.0, 3.0, 10.0])
    assert out.size == 3  # ceil(5 / 2)


def test_paa_window_one_is_identity():
    x = np.array([3.0, 1.0, 4.0])
    assert np.array_equal(paa(x, 1), x)


def test_paa_window_longer_than_series():
    assert np.allclose(paa(np.array([2.0, 4.0]), 10), [3.0])


def test_paa_empty_series_is_empty():
    out = paa(np.zeros(0), 4)
    assert out.dtype == np.float64 and out.size == 0


def test_paa_segment_count_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        W = int(rng.integers(1, 16))
        x = rng.normal(size=n)
        out = paa(x, W)
        assert out.size == -(-n // W)
        # Each segment mean stays within that segment's min and max.
        for i in range(out.size):
            seg = x[i * W:(i + 1) * W]
            assert seg.min() - 1e-12 <= out[i] <= seg.max() + 1e-12


def test_whitening_identity_for_uncorrelated_unit_data():
    # Already decorrelated input with exact identity covariance must come
    # back unchanged up to tight tolerance: no ridge is applied when the
    # covariance is positive definite as-is.
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(500, 2))
    raw -= raw.mean(axis=0)
    cov = raw.T @ raw / raw.shape[0]
    chol = np.linalg.cholesky(cov)
    x = np.linalg.solve(chol, raw.T).T  # exactly identity covariance now
    out = whiten(x, _all_observed(x))
    assert np.allclose(out, x - x.mean(axis=0), atol=1e-9)


def test_whitening_produces_identity_covariance():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(400, 3))
    mix = np.array([[2.0, 0.3, 0.0], [0.5, 1.5, 0.2], [0.1, 0.4, 3.0]])
    x = base @ mix.T + np.array([1.0, -2.0, 0.5])
    out = whiten(x, _all_observed(x))
    cov = out.T @ out / out.shape[0]
    assert np.allclose(cov, np.eye(3), atol=1e-6)


def test_whitening_ridge_rescues_rank_deficiency():
    # A constant channel makes the covariance singular: plain Cholesky fails
    # on its zero pivot, the ridge retry succeeds. (Two proportional
    # channels are not enough; rounding leaves their covariance positive
    # definite.)
    t = np.linspace(0, 1, 64)
    x = np.column_stack([t, np.full(64, 3.0)])
    dev = x - x.mean(axis=0)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(dev.T @ dev / len(x))
    z = whiten(x, _all_observed(x))
    assert np.all(np.isfinite(z))
    assert np.array_equal(z[:, 1], np.zeros(64))


def test_whitening_degenerate_all_zero_is_numeric_error():
    with pytest.raises(NumericError):
        x = np.zeros((8, 2))
        whiten(x, _all_observed(x))


def test_whitening_values_too_large_are_numeric_error():
    x = np.array([[1e200, 1.0], [-1e200, 2.0], [3e200, 0.0]])
    with pytest.raises(NumericError, match="too large to whiten"):
        whiten(x, _all_observed(x))
    with pytest.raises(NumericError, match="too large to whiten"):
        collapse_series(x, _all_observed(x))


def test_whitening_respects_mask():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(100, 2))
    x_bad = x.copy()
    x_bad[10, 0] = 1e6
    mask = np.ones_like(x, dtype=bool)
    mask[10, 0] = False
    clean = whiten(x, _all_observed(x))
    masked = whiten(x_bad, mask)
    # The outlier is unobserved, so it neither drags the channel mean nor
    # inflates the covariance: the whitened rows stay close to the clean ones
    # and the unobserved entry's own deviation is zero.
    assert np.all(np.isfinite(masked))
    assert np.abs(masked).max() < 10.0
    assert np.allclose(np.delete(masked, 10, axis=0),
                       np.delete(clean, 10, axis=0), atol=0.2)
    assert masked[10, 0] == 0.0


def test_collapse_series_is_row_norm_of_whitened_series():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(50, 3)) @ np.array([[1.0, 0.5, 0.0],
                                             [0.0, 2.0, 0.3],
                                             [0.2, 0.0, 0.7]])
    mask = rng.random(x.shape) > 0.1
    x = np.where(mask, x, 0.0)
    z = whiten(x, mask)
    expected = np.array([np.hypot.reduce(row) for row in z])
    assert np.allclose(collapse_series(x, mask), expected, rtol=1e-12)


def test_collapse_series_masked_entries_contribute_nothing():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(60, 2))
    mask = np.ones_like(x, dtype=bool)
    mask[5, :] = False
    out = collapse_series(x, mask)
    # A fully unobserved row sits at the channel means: zero deviation.
    assert out[5] == 0.0
    assert out.shape == (60,)
