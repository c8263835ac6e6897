"""End-to-end fitting, transforming, spans, and thread-count invariance."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import pdbpe
from pdbpe import (DataError, Dataset, PipelineConfig, TimeSeries,
                   fit_pipeline, transform_dataset)
from pdbpe.bpe import Corpus
from pdbpe.core import MultivariateMode, Variation
from pdbpe.features import FeatureDescriptor
from pdbpe.model_io import fingerprint_model
from pdbpe.pipeline import COLLAPSED_CHANNEL, pattern_spans
from pdbpe.variations import view
from synth import motif_dataset, random_dataset

CFG = PipelineConfig(K=4, W=2)


def _small_dataset(seed=0, n=10, length=60, channels=1):
    rng = np.random.default_rng(seed)
    return random_dataset(rng, n_series=n, n_channels=channels, length=length,
                          with_mask=True, with_labels=True)


def test_fit_produces_canonical_columns():
    ds = _small_dataset()
    model, matrix = fit_pipeline(ds, CFG)
    assert matrix.ids == ds.ids
    assert matrix.names == model.output_names()
    # Base symbols for every variation are present before any patterns.
    assert matrix.names[0].startswith("ch0.original.S")
    # Every name is channel.variation.tag and columns follow variation order.
    order = [v.value for v in CFG.variations]
    seen = [n.split(".")[1] for n in matrix.names]
    assert seen == sorted(seen, key=order.index)


def test_transform_reproduces_training_matrix_exactly():
    ds = _small_dataset(seed=1)
    model, matrix = fit_pipeline(ds, CFG)
    again = transform_dataset(model, ds)
    assert again.names == matrix.names
    assert np.array_equal(again.values, matrix.values)


def test_fit_takes_the_training_encoding_from_the_miner(monkeypatch):
    # Fit counts features on the corpus each miner returns; only transform
    # encodes, and it must land on the same matrix.
    ds = _small_dataset(seed=6, channels=2)

    def refuse(*args, **kwargs):
        raise AssertionError("fit_pipeline re-encoded a training view")

    with monkeypatch.context() as patched:
        patched.setattr("pdbpe.pipeline.encode_corpus", refuse)
        model, matrix = fit_pipeline(ds, CFG)
    assert model.pattern_counts()[0] > 0
    again = transform_dataset(model, ds)
    assert np.array_equal(again.values, matrix.values)


def test_fit_is_deterministic():
    ds = _small_dataset(seed=2)
    model_a, mat_a = fit_pipeline(ds, CFG)
    model_b, mat_b = fit_pipeline(ds, CFG)
    assert np.array_equal(mat_a.values, mat_b.values)
    assert fingerprint_model(model_a) == fingerprint_model(model_b)


def test_identical_series_get_identical_rows():
    vals = np.sin(np.linspace(0, 6, 50))
    noise = np.random.default_rng(5).normal(size=50)
    series = (TimeSeries.univariate("a", vals),
              TimeSeries.univariate("b", vals),
              TimeSeries.univariate("c", noise))
    model, matrix = fit_pipeline(Dataset(series), CFG)
    assert np.array_equal(matrix.values[0], matrix.values[1])


def test_channel_order_is_normalized_on_transform():
    ds = _small_dataset(seed=3, channels=2)
    model, matrix = fit_pipeline(ds, CFG)
    flipped = Dataset(tuple(
        TimeSeries(id=ts.id, channels=(ts.channels[1], ts.channels[0]),
                   values=ts.values[:, ::-1], mask=ts.mask[:, ::-1],
                   label=ts.label)
        for ts in ds))
    out = transform_dataset(model, flipped)
    assert np.array_equal(out.values, matrix.values)


def test_channel_set_mismatch_is_rejected():
    ds = _small_dataset(seed=4, channels=2)
    model, _ = fit_pipeline(ds, CFG)
    wrong = Dataset((TimeSeries.univariate("x", np.arange(30.0)),))
    with pytest.raises(DataError):
        transform_dataset(model, wrong)


def test_empty_dataset_rejected():
    with pytest.raises(DataError):
        fit_pipeline(Dataset(()), CFG)
    ds = _small_dataset(seed=6)
    model, _ = fit_pipeline(ds, CFG)
    with pytest.raises(DataError):
        transform_dataset(model, Dataset(()))


def test_single_series_fit_keeps_all_columns():
    ds = Dataset((TimeSeries.univariate(
        "only", np.sin(np.linspace(0, 20, 80))),))
    model, matrix = fit_pipeline(ds, CFG)
    assert all(model.schema.final_kept)
    assert matrix.values.shape[0] == 1


def test_whiten_collapse_mines_single_pseudo_channel():
    ds = _small_dataset(seed=7, channels=3)
    cfg = PipelineConfig(K=4, W=2,
                         multivariate_mode=MultivariateMode.WHITEN_COLLAPSE)
    model, matrix = fit_pipeline(ds, cfg)
    assert model.mined_channels == (COLLAPSED_CHANNEL,)
    assert all(n.startswith(f"{COLLAPSED_CHANNEL}.") for n in matrix.names)
    again = transform_dataset(model, ds)
    assert np.array_equal(again.values, matrix.values)


def test_rcsm_medians_only_fitted_when_selected():
    ds = _small_dataset(seed=8)
    cfg = PipelineConfig(K=4, W=2,
                         variations=(Variation.ORIGINAL, Variation.RCS))
    model, _ = fit_pipeline(ds, cfg)
    assert model.rcsm_medians["ch0"] == {}
    full_model, _ = fit_pipeline(ds, CFG)
    assert full_model.rcsm_medians["ch0"]


def test_autoregressive_base_size_is_step_alphabet():
    ds = _small_dataset(seed=9)
    model, _ = fit_pipeline(ds, CFG)
    assert model.config.base_size(Variation.AUTOREGRESSIVE) == 2 * CFG.K - 1
    assert model.config.base_size(Variation.ORIGINAL) == CFG.K
    ar_vocab = model.vocabularies[("ch0", Variation.AUTOREGRESSIVE)]
    assert ar_vocab.base_size == 2 * CFG.K - 1


def test_variation_sequence_autoregressive_is_offset_encoded():
    corpus, _lo, _hi = view(Corpus.from_sequences([[0, 3, 1]]),
                            Variation.AUTOREGRESSIVE, {}, K=4)
    seq = corpus.tokens.tolist()
    # Raw steps +3, -2 shift by K-1=3 into nonnegative space.
    assert seq == [6, 1]
    assert min(seq) >= 0


def test_centroids_require_group_ids_and_double_columns():
    rng = np.random.default_rng(10)
    ds = random_dataset(rng, n_series=8, n_channels=1, length=50,
                        with_groups=True)
    model, matrix = fit_pipeline(ds, CFG, centroids=True)
    base = len(model.schema.final_names())
    assert matrix.values.shape[1] == 2 * base
    assert matrix.names[base].startswith("centroid.")
    assert model.centroids is True
    no_groups = random_dataset(rng, n_series=6, n_channels=1, length=50,
                               with_groups=False)
    with pytest.raises(DataError):
        fit_pipeline(no_groups, CFG, centroids=True)


def test_missing_group_ids_are_rejected_before_preprocessing(monkeypatch):
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, n_series=6, n_channels=1, length=40,
                        with_groups=True)
    model, _ = fit_pipeline(ds, CFG, centroids=True)
    series = list(ds)
    series[3] = TimeSeries(id="r3", channels=series[3].channels,
                           values=series[3].values, mask=series[3].mask)
    partial = Dataset(tuple(series))

    def no_preprocessing(*args):
        raise AssertionError("preprocessing ran before the group id check")

    monkeypatch.setattr("pdbpe.pipeline._paa_streams", no_preprocessing)
    with pytest.raises(DataError, match="series 'r3' has no group id"):
        fit_pipeline(partial, CFG, centroids=True)
    with pytest.raises(DataError, match="series 'r3' has no group id"):
        transform_dataset(model, partial)


def test_transform_centroids_are_batch_local():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, n_series=8, n_channels=1, length=50,
                        with_groups=True)
    model, _ = fit_pipeline(ds, CFG, centroids=True)
    # Transform only one series of group g0: its centroid must equal its own
    # base row (the batch mean of a singleton group), not the training mean.
    solo = Dataset((ds.series[0],))
    out = transform_dataset(model, solo)
    base = out.values.shape[1] // 2
    assert np.array_equal(out.values[0, base:], out.values[0, :base])


def test_pattern_spans_locate_planted_motif():
    ds, planted = motif_dataset(n_series=40, length=144, motif_len=12,
                                amplitude=3.0, noise=0.2, missing_rate=0.0,
                                seed=12)
    cfg = PipelineConfig(K=5, W=4)
    model, matrix = fit_pipeline(ds, cfg)
    descs = [c for c in model.schema.final_columns() if c.is_pattern]
    spans = pattern_spans(model, ds, descs)
    # Spans are sane: inside the series with non-decreasing starts. Sample
    # spans of consecutive matches may overlap (duplicated run tokens and
    # two-window step tokens share samples), so only ordering is guaranteed.
    lengths = {ts.id: ts.length for ts in ds}
    for name, per_series in spans.items():
        for sid, sp in per_series.items():
            prev_lo = 0
            for lo, hi in sp:
                assert 0 <= lo < hi <= lengths[sid]
                assert lo >= prev_lo
                prev_lo = lo
    # At least one mined pattern's spans overlap most planted windows.
    best_hits = 0
    for name, per_series in spans.items():
        hits = 0
        for sid, (m_lo, m_hi) in planted.items():
            for lo, hi in per_series.get(sid, ()):
                if lo < m_hi and m_lo < hi:
                    hits += 1
                    break
        best_hits = max(best_hits, hits)
    assert best_hits >= 0.8 * len(planted)


def test_pattern_spans_do_not_overlap_within_a_series():
    # Runs of five and four 0s hold (0, 0) at their even offsets only.
    ds = Dataset((TimeSeries.univariate("a", [0, 0, 0, 0, 0, 1, 1, 1]),
                  TimeSeries.univariate("b", [1, 1, 0, 0, 0, 0, 1, 0])))
    model, _ = fit_pipeline(ds, PipelineConfig(K=2, W=1))
    desc = FeatureDescriptor("value", Variation.ORIGINAL, 99, (0, 0), "x",
                             True)
    spans = pattern_spans(model, ds, [desc])
    assert spans == {"x": {"a": [(0, 2), (2, 4)], "b": [(2, 4), (4, 6)]}}


def test_thread_count_does_not_change_output(monkeypatch):
    ds = _small_dataset(seed=13, n=12)
    monkeypatch.setenv("PDBPE_THREADS", "1")
    _, serial = fit_pipeline(ds, CFG)
    monkeypatch.setenv("PDBPE_THREADS", "4")
    _, threaded = fit_pipeline(ds, CFG)
    assert np.array_equal(serial.values, threaded.values)


def test_fit_transform_and_cross_validate_never_import_numpy_ma():
    # numpy.ma costs every process milliseconds and RSS to import, and
    # np.quantile and friends pull it in; a fresh interpreter shows it. numpy
    # is the only runtime dependency, so the test-only packages must not be
    # imported either.
    script = textwrap.dedent("""
        import sys
        from pdbpe import Dataset, PipelineConfig, fit_pipeline, transform_dataset
        from pdbpe.evaluate import cross_validate, kfold_split
        from synth import motif_dataset

        ds, _ = motif_dataset(n_series=12, length=64, motif_len=8, seed=5)
        config = PipelineConfig(K=4, W=2)
        model, _ = fit_pipeline(ds, config)
        transform_dataset(model, ds)
        plan = kfold_split(ds.ids, 2, seed=0)
        for metric in ("accuracy", "auc"):
            cross_validate(ds, config, plan, task="classification",
                           metric=metric)
        numeric = Dataset(tuple(ts.with_annotations(label=str(i % 3))
                                for i, ts in enumerate(ds)))
        cross_validate(numeric, config, plan, task="regression")
        for name in ("numpy.ma", "scipy", "hypothesis", "pytest"):
            assert name not in sys.modules, f"{name} was imported"
    """)
    paths = [os.path.dirname(os.path.dirname(pdbpe.__file__)),
             os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
