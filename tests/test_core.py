"""Domain type behavior: series construction, datasets, config validation."""

import numpy as np
import pytest

from pdbpe import (DataError, Dataset, PipelineConfig, TimeSeries,
                   fit_pipeline)
from pdbpe.core import (ALL_VARIATIONS, MultivariateMode, Variation,
                        ingest_filter, parse_multivariate_mode,
                        parse_variation)
from pdbpe.discretize import Discretizer
from pdbpe.features import FeatureMatrix


def test_univariate_reshapes_to_column():
    ts = TimeSeries.univariate("a", [1.0, 2.0, 3.0])
    assert ts.values.shape == (3, 1)
    assert ts.mask.shape == (3, 1)
    assert ts.channels == ("value",)
    assert ts.length == 3
    assert ts.values.shape[1] == 1


def test_masked_entries_are_zero_filled():
    ts = TimeSeries.univariate("a", [5.0, np.nan, 7.0],
                               mask=[True, False, True])
    assert ts.values[1, 0] == 0.0
    assert ts.observed_timesteps() == 2


def test_non_finite_observed_value_rejected():
    with pytest.raises(DataError):
        TimeSeries.univariate("a", [1.0, np.inf, 2.0])


def test_arrays_are_read_only():
    ts = TimeSeries.univariate("a", [1.0, 2.0])
    with pytest.raises(ValueError):
        ts.values[0, 0] = 9.0
    with pytest.raises(ValueError):
        ts.mask[0, 0] = False


def test_mask_shape_mismatch_rejected():
    with pytest.raises(DataError):
        TimeSeries(id="a", channels=("x", "y"),
                   values=np.zeros((4, 2)), mask=np.ones((4, 1), dtype=bool))


def test_channel_count_must_match_columns():
    with pytest.raises(DataError):
        TimeSeries(id="a", channels=("x",), values=np.zeros((4, 2)), mask=None)


def test_repeated_channel_names_rejected():
    # Columns are looked up by channel name, so a repeated name would leave
    # one of its columns unread.
    with pytest.raises(DataError, match="series 'a': channel names .* are "
                                        "not distinct"):
        TimeSeries(id="a", channels=("x", "x"), values=np.zeros((4, 2)),
                   mask=None)


def test_empty_series_rejected():
    with pytest.raises(DataError):
        TimeSeries.univariate("a", [])


def test_observed_timesteps_counts_any_channel():
    mask = np.array([[True, False], [False, False], [False, True]])
    ts = TimeSeries(id="a", channels=("x", "y"), values=np.ones((3, 2)),
                    mask=mask)
    assert ts.observed_timesteps() == 2


@pytest.mark.parametrize("make", [
    lambda: TimeSeries.univariate("a", [1.0, 2.0], label="L"),
    lambda: TimeSeries.univariate("a", [1.0]),
    lambda: Discretizer(K=2, lower_fence=0.0, upper_fence=1.0,
                        edges=[0.0, 0.5, 1.0]),
    lambda: FeatureMatrix(ids=("a", "b"), names=("x",), values=[[1.0], [2.0]]),
    lambda: fit_pipeline(Dataset(tuple(
        TimeSeries.univariate(f"s{i}", np.sin(np.arange(24.0) * (i + 1)))
        for i in range(4))), PipelineConfig(K=3, W=2))[0],
], ids=["series", "one-sample-series", "discretizer", "feature-matrix",
        "fitted-model"])
def test_records_holding_arrays_compare_and_hash_by_identity(make):
    # Field-wise == would compare arrays, whose truth value is ambiguous.
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_dataset_compares_its_series_by_identity():
    ts = TimeSeries.univariate("a", [1.0, 2.0])
    assert Dataset((ts,)) == Dataset((ts,))
    assert Dataset((ts,)) != Dataset((TimeSeries.univariate("a", [1.0, 2.0]),))
    assert hash(Dataset((ts,))) == hash(Dataset((ts,)))


def test_with_annotations_overrides_only_given_fields():
    ts = TimeSeries.univariate("a", [1.0], group_id="g1", label="L")
    ts2 = ts.with_annotations(label="M")
    assert ts2.group_id == "g1"
    assert ts2.label == "M"
    assert ts.label == "L"


def test_dataset_rejects_duplicate_ids():
    a = TimeSeries.univariate("a", [1.0])
    with pytest.raises(DataError):
        Dataset((a, TimeSeries.univariate("a", [2.0])))


def test_dataset_rejects_mixed_channels():
    a = TimeSeries.univariate("a", [1.0], channel="x")
    b = TimeSeries.univariate("b", [1.0], channel="y")
    with pytest.raises(DataError):
        Dataset((a, b))


def test_dataset_order_and_accessors():
    a = TimeSeries.univariate("a", [1.0])
    b = TimeSeries.univariate("b", [2.0])
    ds = Dataset((a, b))
    assert ds.ids == ("a", "b")
    assert ds.channels == ("value",)
    assert len(ds) == 2
    assert [ts.id for ts in ds] == ["a", "b"]


def test_ingest_filter_threshold_and_idempotence():
    full = TimeSeries.univariate("full", np.arange(10.0))
    sparse = TimeSeries.univariate(
        "sparse", np.arange(10.0), mask=[True] * 3 + [False] * 7)
    ds = Dataset((full, sparse))
    kept = ingest_filter(ds, 4)
    assert kept.ids == ("full",)
    assert ingest_filter(kept, 4).ids == kept.ids
    # Boundary is inclusive.
    assert ingest_filter(ds, 3).ids == ("full", "sparse")
    with pytest.raises(DataError):
        ingest_filter(ds, -1)


def test_config_bounds():
    PipelineConfig(K=2, W=1)
    PipelineConfig(K=100, W=15)
    for bad in (dict(K=1, W=4), dict(K=101, W=4), dict(K=4, W=0),
                dict(K=4, W=16), dict(K=4, W=4, P=0.0), dict(K=4, W=4, P=1.0),
                dict(K=4, W=4, U=0.0), dict(K=4, W=4, U=1.0),
                dict(K=4, W=4, correlation_threshold=0.0),
                dict(K=4, W=4, correlation_threshold=1.5),
                dict(K=4, W=4, iqr_multiplier=0.0),
                dict(K=4, W=4, iqr_multiplier=float("nan")),
                dict(K=4, W=4, iqr_multiplier=float("inf")),
                dict(K=4, W=4, variations=())):
        with pytest.raises(DataError):
            PipelineConfig(**bad)
    with pytest.raises(DataError):
        PipelineConfig(K=4.5, W=4)


def test_config_normalizes_variation_order():
    cfg = PipelineConfig(K=4, W=4, variations=(
        Variation.RCSM, Variation.ORIGINAL, Variation.RCSM))
    assert cfg.variations == (Variation.ORIGINAL, Variation.RCSM)
    assert PipelineConfig(K=4, W=4).variations == ALL_VARIATIONS


def test_parse_variation_and_mode():
    assert parse_variation(" RCS ") is Variation.RCS
    assert parse_variation("autoregressive") is Variation.AUTOREGRESSIVE
    with pytest.raises(DataError):
        parse_variation("bogus")
    assert parse_multivariate_mode("PER_CHANNEL") is MultivariateMode.PER_CHANNEL
    with pytest.raises(DataError):
        parse_multivariate_mode("nope")
