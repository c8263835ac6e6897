"""Acceptance gate: one test per delivered contract.

Run with -v to get a single pass/fail line per criterion. Every tolerance
is pinned in the assertion itself; the randomized checks use fixed seeds so
a failure is reproducible bit-for-bit.
"""

import csv
import random
import re
import resource
import subprocess
import sys
import time

import numpy as np

from naive_bpe import corpus_of, naive_fit, sequences_of
from pdbpe import Dataset, PipelineConfig, TimeSeries, fit_pipeline
from pdbpe.bpe import encode_corpus, fit_bpe
from pdbpe.core import Variation
from pdbpe.preprocess import whiten
from pdbpe.variations import view
from synth import dataset_to_csv, motif_dataset, random_symbol_corpus

REF = [1, 1, 2, 2, 2, 0, 0, 0, 4]


def encode(symbols, vocab):
    """The merge rules applied to one base-alphabet sequence."""
    return encode_corpus(corpus_of([symbols]), vocab).tokens.tolist()


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "pdbpe.cli", *args],
                          capture_output=True, text=True)


def test_criterion_01_reference_variation_outputs():
    # The three derived views of the reference sequence, matched exactly.
    t0 = time.perf_counter()
    symbols = corpus_of([REF])
    medians = {0: 2, 1: 2, 2: 2, 4: 2}

    def tokens(variation):
        return view(symbols, variation, medians, K=5)[0].tokens.tolist()

    assert tokens(Variation.RCS) == [1, 2, 0, 4]
    assert tokens(Variation.RCSM) == [1, 2, 2, 0, 0, 4]
    # The step view is shifted by K-1 = 4 into nonnegative symbols.
    assert [t - 4 for t in tokens(Variation.AUTOREGRESSIVE)] == [
        0, 1, 0, 0, -2, 0, 0, 4]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_stop_threshold_arithmetic(tmp_path):
    # 100 series of 500 symbols: T = 100 * 499 = 49900 pair slots and the
    # stopping threshold max(N*P, T*U) = max(20, 49.9) reports as 49.9.
    rng = random.Random(41)
    corpus = [[rng.randrange(5) for _ in range(500)] for _ in range(100)]
    vocab, _ = fit_bpe(corpus_of(corpus), 5)
    assert vocab.n_series == 100
    assert vocab.initial_pair_slots == 49900
    assert f"{vocab.stop_threshold:.12g}" == "49.9"

    # The same numbers must reach the command-line report verbatim.
    gen = np.random.default_rng(41)
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("series_id,channel,t,value\n")
        for i in range(100):
            for t, v in enumerate(gen.normal(size=500)):
                fh.write(f"s{i:03d},value,{t},{float(v)!r}\n")
    r = _cli("discover", "--data", str(data), "--k", "5", "--w", "1",
             "--variations", "original",
             "--model-out", str(tmp_path / "model.json"),
             "--features-out", str(tmp_path / "features.csv"))
    assert r.returncode == 0, r.stderr
    assert "(stop threshold 49.9, T=49900, N=100)" in r.stdout


def test_criterion_03_miner_matches_naive_reference():
    # 500 random corpora: the flat-array miner must agree with the
    # per-pair greedy reference rule for rule, and encoding each corpus with
    # the mined vocabulary must give the reference's final corpus, as must
    # the corpus the miner returns, across a spread of stopping parameters.
    rng = random.Random(95014)
    t0 = time.perf_counter()
    for _ in range(500):
        corpus = random_symbol_corpus(rng, max_series=10, max_len=30,
                                      alphabet=6)
        P = rng.choice([0.1, 0.2, 0.3, 0.5])
        U = rng.choice([0.0005, 0.001, 0.05, 0.2])
        vocab, merged = fit_bpe(corpus_of(corpus), 6, P=P, U=U)
        encoded = sequences_of(encode_corpus(corpus_of(corpus), vocab))
        ref_rules, ref_corpus = naive_fit(corpus, 6, P=P, U=U)
        got = [(r.new_symbol, r.left, r.right, r.train_frequency,
                r.train_series_support) for r in vocab.rules]
        assert got == ref_rules
        assert encoded == ref_corpus
        assert sequences_of(merged) == ref_corpus
    assert time.perf_counter() - t0 < 30.0


def test_criterion_04_encode_decode_round_trip():
    # decode(encode(x)) == x for 1000 series drawn independently of the
    # corpora the vocabularies were trained on.
    rng = random.Random(777)
    checked = 0
    for _ in range(25):
        corpus = random_symbol_corpus(rng, max_series=8, max_len=40,
                                      alphabet=5)
        vocab, _ = fit_bpe(corpus_of(corpus), 5)
        for _ in range(40):
            x = [rng.randrange(5) for _ in range(rng.randint(0, 60))]
            tokens = encode(x, vocab)
            expanded = [s for tok in tokens for s in vocab.decode(tok)]
            assert expanded == x
            checked += 1
    assert checked == 1000


def test_criterion_05_two_runs_give_identical_artifacts(tmp_path):
    # Two cmd_discover runs on the same input must write byte-identical
    # model and feature files.
    ds, _ = motif_dataset(n_series=40, length=96, seed=5)
    data = tmp_path / "data.csv"
    dataset_to_csv(ds, data)
    blobs = {}
    for run in ("1", "2"):
        model_path = tmp_path / f"model_{run}.json"
        feat_path = tmp_path / f"features_{run}.csv"
        r = _cli("discover", "--data", str(data), "--k", "5", "--w", "4",
                 "--model-out", str(model_path),
                 "--features-out", str(feat_path))
        assert r.returncode == 0, r.stderr
        blobs[run] = (model_path.read_bytes(), feat_path.read_bytes())
    assert blobs["1"][0] == blobs["2"][0]
    assert blobs["1"][1] == blobs["2"][1]


def test_criterion_06_pruned_matrix_contract():
    # Exhaustive scan of the post-pruning training matrix: every pairwise
    # |Pearson r| <= 0.95 (1e-9 slack for recomputation roundoff) and every
    # column has strictly positive variance.
    rng = np.random.default_rng(2024)
    series = tuple(
        TimeSeries.univariate(f"p{i:03d}", rng.normal(size=160))
        for i in range(300))
    model, matrix = fit_pipeline(Dataset(series), PipelineConfig(K=5, W=4))
    X = matrix.values
    assert X.shape[0] == 300
    assert X.var(axis=0).min() > 0.0
    corr = np.corrcoef(X.T)
    off_diag = np.abs(corr - np.eye(X.shape[1]))
    assert float(off_diag.max()) <= 0.95 + 1e-9


def test_criterion_07_whitening_yields_identity_covariance():
    # Whitened output of correlated 2- and 3-channel series has sample
    # covariance within 1e-6 of the identity.
    rng = np.random.default_rng(7)
    for d in (2, 3):
        base = rng.normal(size=(500, d))
        mixing = rng.normal(size=(d, d)) + 0.5 * np.eye(d)
        values = base @ mixing.T + rng.normal(size=d)
        z = whiten(values, np.ones(values.shape, dtype=bool))
        cov = z.T @ z / 500
        assert float(np.abs(cov - np.eye(d)).max()) < 1e-6


def test_criterion_08_motif_benchmark_end_to_end(tmp_path):
    # Planted-motif benchmark through the installed commands: 5-fold CV
    # accuracy >= 0.90 and at least one of the top-5 ranked patterns whose
    # occurrence spans overlap >= 60% of the planted motif locations.
    t0 = time.perf_counter()
    ds, planted = motif_dataset(seed=1)
    data = tmp_path / "data.csv"
    labels = tmp_path / "labels.csv"
    dataset_to_csv(ds, data, labels)
    model_path = tmp_path / "model.json"
    feat_path = tmp_path / "features.csv"
    spans_path = tmp_path / "spans.csv"

    r = _cli("discover", "--data", str(data), "--labels", str(labels),
             "--k", "5", "--w", "4", "--model-out", str(model_path),
             "--features-out", str(feat_path))
    assert r.returncode == 0, r.stderr

    r = _cli("evaluate", "--data", str(data), "--labels", str(labels),
             "--k", "5", "--w", "4", "--folds", "5", "--seed", "0",
             "--task", "classification", "--metric", "accuracy",
             "--report-out", str(tmp_path / "report.txt"))
    assert r.returncode == 0, r.stderr
    m = re.search(r"mean accuracy: ([0-9.]+)", r.stdout)
    assert m is not None, r.stdout
    assert float(m.group(1)) >= 0.90

    r = _cli("inspect", "--model", str(model_path),
             "--features", str(feat_path), "--labels", str(labels),
             "--data", str(data), "--top", "5",
             "--spans-out", str(spans_path))
    assert r.returncode == 0, r.stderr
    top = re.findall(r"^  (value\.\S+):", r.stdout, flags=re.M)
    assert len(top) == 5

    spans = {}
    with open(spans_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            spans.setdefault(row["feature"], {}).setdefault(
                row["series_id"], []).append(
                    (int(row["start"]), int(row["end"])))
    overlaps = []
    for name in top:
        if ".P" not in name:
            continue  # base-symbol column, not a mined pattern
        per_series = spans.get(name, {})
        hits = sum(
            1 for sid, (lo_p, hi_p) in planted.items()
            if any(lo < hi_p and lo_p < hi
                   for lo, hi in per_series.get(sid, ())))
        overlaps.append(hits / len(planted))
    assert overlaps, "no mined pattern in the top-5 ranking"
    assert max(overlaps) >= 0.60
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_scale_run_within_budgets():
    # 12,000 series of length 288 at K=10, W=8, all variations: extraction
    # finishes under 120 s and the process peak stays under 2 GB.
    rng = np.random.default_rng(99)
    n, length = 12000, 288
    tgrid = np.arange(length)
    freq = rng.uniform(0.01, 0.15, size=(n, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
    X = np.sin(2.0 * np.pi * freq * tgrid + phase)
    X += rng.normal(0.0, 0.3, size=(n, length))
    series = tuple(TimeSeries.univariate(f"b{i:05d}", X[i])
                   for i in range(n))
    dataset = Dataset(series)

    t0 = time.perf_counter()
    model, matrix = fit_pipeline(dataset, PipelineConfig(K=10, W=8))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert matrix.values.shape[0] == n
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024  # ru_maxrss is KB on Linux


def test_criterion_10_feature_count_bookkeeping(tmp_path):
    # Reported dimension == sum over (channel, variation) of base alphabet
    # plus support-filtered patterns, minus pruned columns, recounted here
    # from the raw rule records and checked against the written artifacts.
    ds, _ = motif_dataset(seed=1)
    config = PipelineConfig(K=5, W=4)
    model, matrix = fit_pipeline(ds, config)

    min_support = model.n_training_series * config.P
    expected_emitted = 0
    for vocab in model.vocabularies.values():
        supported = sum(1 for r in vocab.rules
                        if r.train_series_support >= min_support)
        expected_emitted += vocab.base_size + supported
    assert len(model.schema.columns) == expected_emitted

    pruned = sum(1 for kept in model.schema.final_kept if not kept)
    expected_dim = expected_emitted - pruned
    final = model.schema.final_columns()
    assert len(final) == expected_dim
    assert matrix.values.shape[1] == expected_dim
    assert len(model.output_names()) == expected_dim

    # Cross-check the dimensions the command line reports on the same data.
    data = tmp_path / "data.csv"
    dataset_to_csv(ds, data)
    r = _cli("discover", "--data", str(data), "--k", "5", "--w", "4",
             "--model-out", str(tmp_path / "model.json"),
             "--features-out", str(tmp_path / "features.csv"))
    assert r.returncode == 0, r.stderr
    m = re.search(r"pruning: (\d+) columns -> \d+ after variance -> (\d+) "
                  r"after correlation", r.stdout)
    assert m is not None, r.stdout
    assert int(m.group(1)) == expected_emitted
    assert int(m.group(2)) == expected_dim
    m = re.search(r"wrote features \((\d+) x (\d+)\)", r.stdout)
    assert m is not None, r.stdout
    assert int(m.group(1)) == len(ds)
    assert int(m.group(2)) == expected_dim
