"""Equal-width binning with IQR outlier fencing."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdbpe import DataError, NumericError
from pdbpe.discretize import (Discretizer, _quartiles, apply_discretizer,
                              fit_discretizer)


def test_fences_from_linear_interpolation_quartiles():
    # For 1..8: Q1 = 2.75, Q3 = 6.25 (linear interpolation at (n-1)q),
    # IQR = 3.5, fences at 1.5 IQR: [-2.5, 11.5].
    values = np.arange(1.0, 9.0)
    disc = fit_discretizer(values, K=4)
    assert disc.lower_fence == pytest.approx(-2.5)
    assert disc.upper_fence == pytest.approx(11.5)
    # No value is fenced out here, so edges span the data range.
    assert disc.edges[0] == pytest.approx(1.0)
    assert disc.edges[-1] == pytest.approx(8.0)
    assert len(disc.edges) == 5


def test_outliers_excluded_from_edge_fitting_but_still_binnable():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 1000.0])
    disc = fit_discretizer(values, K=5)
    # The outlier lies beyond the upper fence and must not stretch the grid.
    assert disc.edges[-1] == pytest.approx(5.0)
    # Applying is still total: the outlier clamps into the top bin.
    assert apply_discretizer(1000.0, disc) == 4
    assert apply_discretizer(-50.0, disc) == 0


def test_apply_floor_and_boundaries():
    disc = fit_discretizer(np.array([0.0, 4.0]), K=4)
    assert np.array_equal(disc.edges, [0.0, 1.0, 2.0, 3.0, 4.0])
    assert apply_discretizer(0.0, disc) == 0
    assert apply_discretizer(0.999, disc) == 0
    # Interior edges belong to the bin on their right.
    assert apply_discretizer(1.0, disc) == 1
    assert apply_discretizer(3.0, disc) == 3
    # The top edge itself clamps into the last bin.
    assert apply_discretizer(4.0, disc) == 3


def test_apply_vector_and_dtype():
    disc = fit_discretizer(np.array([0.0, 10.0]), K=5)
    out = apply_discretizer(np.array([-1.0, 0.0, 4.0, 9.99, 10.0, 11.0]), disc)
    assert out.dtype == np.int64
    assert out.tolist() == [0, 0, 2, 4, 4, 4]


def test_constant_pool_is_numeric_error():
    with pytest.raises(NumericError):
        fit_discretizer(np.full(10, 2.0), K=4)


def test_empty_pool_is_numeric_error():
    with pytest.raises(NumericError):
        fit_discretizer(np.array([]), K=4)


def test_all_values_fenced_identical_is_numeric_error():
    # One extreme outlier cannot leave a degenerate single-point pool.
    values = np.array([5.0] * 9 + [1e9])
    with pytest.raises(NumericError):
        fit_discretizer(values, K=3)


def test_iqr_multiplier_widens_fences():
    values = np.concatenate([np.arange(1.0, 9.0), [30.0]])
    narrow = fit_discretizer(values, K=4, iqr_multiplier=1.5)
    wide = fit_discretizer(values, K=4, iqr_multiplier=10.0)
    assert narrow.edges[-1] < 30.0
    assert wide.edges[-1] == pytest.approx(30.0)


def test_bin_bounds_tile_the_fitted_range():
    rng = np.random.default_rng(21)
    values = rng.normal(size=500)
    disc = fit_discretizer(values, K=7)
    for k in range(7):
        lo, hi = disc.bin_bounds(k)
        assert lo == pytest.approx(disc.edges[k])
        assert hi == pytest.approx(disc.edges[k + 1])
    widths = np.diff(disc.edges)
    assert np.allclose(widths, widths[0])


def test_randomized_bins_agree_with_searchsorted():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(5, 400))
        K = int(rng.integers(2, 12))
        values = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 4), size=n)
        disc = fit_discretizer(values, K=K)
        probes = rng.uniform(disc.edges[0], disc.edges[-1], size=64)
        got = apply_discretizer(probes, disc)
        want = np.clip(np.searchsorted(disc.edges, probes, side="right") - 1,
                       0, K - 1)
        # Allow off-by-one only where floating point puts a probe exactly on
        # an edge; otherwise the two derivations agree.
        diff = np.flatnonzero(got != want)
        for idx in diff:
            assert np.any(np.isclose(probes[idx], disc.edges))
        assert np.all(got >= 0) and np.all(got <= K - 1)


@pytest.mark.parametrize("edges", [
    [0.0], [0.0, 1.0, 2.0], [3.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, np.nan, 3.0], [0.0, 1.0, 2.0, np.inf]],
    ids=["one", "K", "descending", "flat", "nan", "inf"])
def test_discretizer_rejects_degenerate_edges(edges):
    with pytest.raises(DataError,
                       match="bin edges must be 4 finite, non-decreasing"):
        Discretizer(K=3, lower_fence=0.0, upper_fence=3.0, edges=edges)


def test_discretizer_accepts_repeated_edges_from_a_tiny_range():
    # np.linspace over a range of one ulp repeats edges; the fitted model
    # must still load.
    disc = fit_discretizer(np.array([1.0, np.nextafter(1.0, 2.0)]), K=4)
    assert np.any(disc.edges[1:] == disc.edges[:-1])
    again = Discretizer(K=4, lower_fence=disc.lower_fence,
                        upper_fence=disc.upper_fence, edges=list(disc.edges))
    assert apply_discretizer(np.nextafter(1.0, 2.0), again) == 3


# Quartiles against np.quantile, the oracle the written-out rule replaces.

_MAX = np.finfo(np.float64).max
_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5,
                5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                1e308, -1e308, _MAX, -_MAX, 8.9e307]


@st.composite
def _pools(draw):
    """Pools of 1-5 values (every fraction of (n-1)*q) or a few more, drawn
    from a small palette so that ties are heavy."""
    palette = draw(st.lists(st.sampled_from(_EDGE_VALUES)
                            | st.floats(allow_nan=False, allow_infinity=False),
                            min_size=1, max_size=4))
    n = draw(st.integers(1, 5) | st.integers(6, 40))
    return draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))


def _fit_with_np_quantile(values, K, iqr_multiplier):
    values = np.asarray(values, dtype=np.float64)
    q1, q3 = np.quantile(values, [0.25, 0.75])
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
    return Discretizer(K=K, lower_fence=float(lower), upper_fence=float(upper),
                       edges=np.linspace(lo, hi, K + 1))


def _outcome(fit, values, K, iqr_multiplier):
    """A fit's result as bytes, or its error, so -0.0 differs from 0.0."""
    try:
        with np.errstate(all="ignore"):
            disc = fit(values, K, iqr_multiplier)
    except (DataError, NumericError, ValueError) as exc:
        return type(exc), str(exc)
    return (disc.K, np.array([disc.lower_fence, disc.upper_fence]).tobytes(),
            disc.edges.tobytes())


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(values=_pools(), K=st.integers(1, 6),
       iqr_multiplier=st.sampled_from([0.0, 0.5, 1.5, 3.0]))
@example(values=[-0.0], K=2, iqr_multiplier=1.5)
@example(values=[0.0, -0.0, -0.0, 0.0, 1.0], K=2, iqr_multiplier=0.0)
@example(values=[-_MAX, _MAX], K=2, iqr_multiplier=1.5)
@example(values=[-1e308, 0.0, 1e308, 1e308, -1e308], K=3, iqr_multiplier=1.5)
def test_quartiles_match_np_quantile_bit_for_bit(values, K, iqr_multiplier):
    values = np.array(values)
    with np.errstate(all="ignore"):
        want = np.quantile(values, [0.25, 0.75])
    # Bytes, so the sign of a zero, an infinity and a NaN all count.
    assert np.array(_quartiles(values)).tobytes() == want.tobytes()
    assert (_outcome(fit_discretizer, values, K, iqr_multiplier)
            == _outcome(_fit_with_np_quantile, values, K, iqr_multiplier))


@pytest.mark.parametrize("values,what", [
    ([-_MAX, _MAX], "fences"),
    ([-1e308, 0.0, 1e308, 1e308, -1e308], "fences"),
    ([-0.95e308, -0.25e308, -0.25e308, 0.25e308, 0.25e308, 0.95e308],
     "edges")])
def test_overflowing_pool_is_numeric_error(values, what):
    with pytest.raises(NumericError, match=f"values too large .*{what}"):
        fit_discretizer(values, 3)
