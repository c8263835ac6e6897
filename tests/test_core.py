"""Domain type behavior: series construction, datasets, config validation."""

import numpy as np
import pytest

from pdbpe import DataError, Dataset, PipelineConfig, TimeSeries
from pdbpe.core import (ALL_VARIATIONS, MultivariateMode, Variation,
                        ingest_filter, parse_multivariate_mode,
                        parse_variation)


def test_univariate_reshapes_to_column():
    ts = TimeSeries.univariate("a", [1.0, 2.0, 3.0])
    assert ts.values.shape == (3, 1)
    assert ts.mask.shape == (3, 1)
    assert ts.channels == ("value",)
    assert ts.length == 3
    assert ts.num_channels == 1


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


def test_empty_series_rejected():
    with pytest.raises(DataError):
        TimeSeries.univariate("a", [])


def test_observed_timesteps_counts_any_channel():
    mask = np.array([[True, False], [False, False], [False, True]])
    ts = TimeSeries(id="a", channels=("x", "y"), values=np.ones((3, 2)),
                    mask=mask)
    assert ts.observed_timesteps() == 2


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
