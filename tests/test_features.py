"""Schema emission, counting, pruning, centroids, and ANOVA ranking."""

import numpy as np
import pytest
import scipy.stats

from naive_bpe import corpus_of
from naive_prune import naive_prune_correlated
from pdbpe import DataError, features
from pdbpe.bpe import fit_bpe
from pdbpe.core import Variation
from pdbpe.features import (FeatureDescriptor, FeatureSchema, anova_f_rank,
                            assemble_matrix, build_schema, centroid_augment,
                            drop_zero_variance, feature_name,
                            prune_correlated)


def test_feature_names():
    assert feature_name("hr", Variation.ORIGINAL, 3, False, K=5) == "hr.original.S3"
    assert feature_name("hr", Variation.RCS, 12, True, K=5) == "hr.rcs.P12"
    # Step-difference base symbols display as signed offsets from zero.
    assert feature_name("hr", Variation.AUTOREGRESSIVE, 0, False,
                        K=5) == "hr.autoregressive.S-4"
    assert feature_name("hr", Variation.AUTOREGRESSIVE, 8, False,
                        K=5) == "hr.autoregressive.S4"
    # Pattern ids stay in the internal space even for that variation.
    assert feature_name("hr", Variation.AUTOREGRESSIVE, 9, True,
                        K=5) == "hr.autoregressive.P9"


def _tiny_vocab():
    return fit_bpe(corpus_of([[0, 1, 0, 1, 0, 1]]), base_size=2,
                   P=0.2, U=0.4)[0]


def test_build_schema_base_then_supported_patterns():
    vocab = _tiny_vocab()
    assert len(vocab.rules) == 1
    schema = build_schema(["v"], [Variation.ORIGINAL],
                          {("v", Variation.ORIGINAL): vocab},
                          n_series=1, P=0.2, K=2)
    names = [c.name for c in schema.columns]
    assert names == ["v.original.S0", "v.original.S1", "v.original.P2"]
    assert [c.is_pattern for c in schema.columns] == [False, False, True]
    assert schema.columns[2].decoded == (0, 1)


def test_build_schema_support_filter_is_inclusive():
    corpus = [[0, 1, 0, 1], [0, 1, 0, 1], [2, 2, 2, 2], [2, 2, 2, 2],
              [2, 2, 2, 2]]
    vocab, _ = fit_bpe(corpus_of(corpus), base_size=3, P=0.2,
                       U=0.001)
    by_pair = {(r.left, r.right): r for r in vocab.rules}
    assert by_pair[(0, 1)].train_series_support == 2
    # min support = 5 * 0.4 = 2.0; support of exactly 2 must be emitted.
    schema = build_schema(["v"], [Variation.ORIGINAL],
                          {("v", Variation.ORIGINAL): vocab},
                          n_series=5, P=0.4, K=3)
    emitted = {c.symbol for c in schema.columns if c.is_pattern}
    assert by_pair[(0, 1)].new_symbol in emitted
    # At P=0.5 (min support 2.5) the same pattern falls out.
    schema2 = build_schema(["v"], [Variation.ORIGINAL],
                           {("v", Variation.ORIGINAL): vocab},
                           n_series=5, P=0.5, K=3)
    emitted2 = {c.symbol for c in schema2.columns if c.is_pattern}
    assert by_pair[(0, 1)].new_symbol not in emitted2


def _count_rows(sequences, symbols):
    """assemble_matrix rows of one block whose columns are the given
    symbols of the given encoded sequences."""
    columns = tuple(FeatureDescriptor("v", Variation.ORIGINAL, s, (s,),
                                      f"v.original.S{s}", False)
                    for s in symbols)
    encoded = {("v", Variation.ORIGINAL): corpus_of(sequences)}
    return assemble_matrix(len(sequences), encoded, FeatureSchema(columns))


def test_count_features_normalizes_by_encoded_length():
    out = _count_rows([[2, 2, 5, 2]], [2, 5, 7])[0]
    assert np.allclose(out, [0.75, 0.25, 0.0])
    assert np.array_equal(_count_rows([[]], [2, 5])[0], [0.0, 0.0])


def test_assemble_matrix_row_and_column_order():
    vocab = _tiny_vocab()
    schema = build_schema(["v"], [Variation.ORIGINAL],
                          {("v", Variation.ORIGINAL): vocab},
                          n_series=1, P=0.2, K=2)
    encoded = {("v", Variation.ORIGINAL):
               corpus_of([[2, 2, 2], [0, 0, 1]])}
    values = assemble_matrix(2, encoded, schema)
    assert np.allclose(values[0], [0.0, 0.0, 1.0])
    assert np.allclose(values[1], [2 / 3, 1 / 3, 0.0])
    with pytest.raises(DataError):
        assemble_matrix(1, {}, schema)


def test_drop_zero_variance_floor():
    # Column 2 varies by 1e-7 (variance ~2e-15, above the 1e-15 floor);
    # column 3 varies by 1e-9 (variance ~2e-19, below it).
    values = np.array([[1.0, 2.0, 0.5, 0.5],
                       [1.0, 3.0, 0.5 + 1e-7, 0.5 + 1e-9],
                       [1.0, 4.0, 0.5, 0.5]])
    pruned, kept = drop_zero_variance(values)
    assert kept.tolist() == [False, True, True, False]
    assert pruned.shape == (3, 2)


def test_prune_correlated_keep_first_and_absolute_value():
    rng = np.random.default_rng(8)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    cols = np.column_stack([a, -a, b, a + 0.001 * rng.normal(size=50)])
    pruned, kept = prune_correlated(cols, threshold=0.95)
    # The anti-correlated copy and the noisy near-copy both drop; the
    # independent column stays.
    assert kept.tolist() == [True, False, True, False]
    assert pruned.shape == (50, 2)


def test_prune_correlated_threshold_is_strict():
    # Two columns with correlation 0.95 up to rounding. How the exact check
    # rounds depends on the BLAS kernel, so the threshold is the value it
    # computes for the pair, with unit built as prune_correlated builds it:
    # at that value both columns are kept (the comparison is strictly
    # greater), and one step below it b is dropped.
    rng = np.random.default_rng(12)
    a = rng.normal(size=2000)
    e = rng.normal(size=2000)
    a = (a - a.mean()) / a.std()
    e = e - e.mean()
    e = e - a * (a @ e) / (a @ a)  # orthogonalize
    e /= e.std()
    rho = 0.95
    b = rho * a + np.sqrt(1 - rho * rho) * e
    cols = np.column_stack([a, b])
    unit = cols - cols.mean(axis=0)
    unit /= np.sqrt((unit * unit).sum(axis=0))
    value = float(np.max(np.abs(unit[:, [0]].T @ unit[:, 1])))
    assert abs(value - 0.95) < 1e-12
    _, kept = prune_correlated(cols, threshold=value)
    assert kept.tolist() == [True, True]
    _, kept = prune_correlated(cols, threshold=np.nextafter(value, 0.0))
    assert kept.tolist() == [True, False]


def test_prune_correlated_rejects_constant_columns():
    with pytest.raises(DataError):
        prune_correlated(np.ones((4, 2)))


def _correlated_case(rng):
    """A matrix with zero-variance columns removed, in C or Fortran order,
    whose columns are often duplicated, negated, scaled and shifted,
    perturbed by 1e-9 or low-rank, and a threshold: drawn from [0.5, 1.0],
    or 0.95, 1.0 or a pair's computed correlation."""
    n = int(rng.choice([2, 3, rng.integers(4, 40), rng.integers(40, 301)]))
    f = int(rng.integers(1, 90))
    source = rng.integers(0, 3)
    if source == 0:
        rank = int(rng.integers(1, 6))
        values = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, f))
    elif source == 1:
        # Length-normalized counts, like the pipeline's columns.
        values = rng.integers(0, 4, size=(n, f)) / rng.integers(4, 30, (n, 1))
    else:
        values = rng.normal(size=(n, f))
    for j in range(1, f):
        col = values[:, rng.integers(0, j)]
        kind = rng.integers(0, 6)
        if kind == 0:
            values[:, j] = col
        elif kind == 1:
            values[:, j] = -col
        elif kind == 2:
            values[:, j] = col * rng.uniform(0.1, 10.0) + rng.normal()
        elif kind == 3:
            values[:, j] = col + 1e-9 * rng.normal(size=n)
    values = drop_zero_variance(values)[0]
    if rng.random() < 0.5:
        values = np.ascontiguousarray(values)
    threshold = float(rng.choice([rng.uniform(0.5, 1.0), 0.95, 1.0]))
    if values.shape[1] >= 2 and rng.random() < 0.3:
        # On the knife edge: the exact check's own value for one pair.
        unit = values - values.mean(axis=0)
        unit = unit / np.sqrt((unit * unit).sum(axis=0))
        i, j = sorted(rng.choice(values.shape[1], 2, replace=False))
        threshold = min(float(abs(unit[:, [i]].T @ unit[:, j])[0]), 1.0)
    return values, threshold


@pytest.mark.parametrize("block", [1, 7, features._GRAM_BLOCK])
def test_prune_correlated_matches_the_per_column_loop(block, monkeypatch):
    monkeypatch.setattr(features, "_GRAM_BLOCK", block)
    rng = np.random.default_rng(21)
    for _ in range(400):
        values, threshold = _correlated_case(rng)
        want, want_kept = naive_prune_correlated(values, threshold)
        got, kept = prune_correlated(values, threshold)
        assert kept.tolist() == want_kept.tolist()
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [1, 3, features._GRAM_BLOCK])
def test_duplicates_at_threshold_one_take_the_exact_check(block,
                                                          monkeypatch):
    # A copy's correlation is 1 give or take a few ulps, inside the band
    # where the screen cannot decide, so the exact check's rounding keeps
    # some copies and drops others; the screen must not overrule it.
    monkeypatch.setattr(features, "_GRAM_BLOCK", block)
    rng = np.random.default_rng(5)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(2, 300))
        x = rng.normal(size=(n, 1))
        values = np.hstack([x, x, 3.0 * x, -x, x + 1e-12,
                            rng.normal(size=(n, 2)), 0.5 * x])
        _, want = naive_prune_correlated(values, 1.0)
        _, kept = prune_correlated(values, 1.0)
        assert kept.tolist() == want.tolist()
        outcomes.add(tuple(want.tolist()))
    assert len(outcomes) > 1


def test_centroid_augment_group_means():
    values = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    out = centroid_augment(values, ["g1", "g1", "g2"])
    assert out.shape == (3, 4)
    assert np.allclose(out[0, 2:], [2.0, 1.0])
    assert np.allclose(out[1, 2:], [2.0, 1.0])
    assert np.allclose(out[2, 2:], [5.0, 4.0])
    assert np.array_equal(out[:, :2], values)
    for missing in (None, ""):
        with pytest.raises(DataError, match="row 1 has no group id"):
            centroid_augment(values, ["g1", missing, "g2"])


def test_anova_matches_scipy():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n, f = int(rng.integers(6, 40)), int(rng.integers(1, 8))
        labels = rng.choice(["a", "b", "c"], size=n).tolist()
        if len(set(labels)) < 2:
            labels[0], labels[1] = "a", "b"
        values = rng.normal(size=(n, f))
        ranked = dict(anova_f_rank(values, labels))
        for j in range(f):
            groups = [values[[i for i, lab in enumerate(labels) if lab == g], j]
                      for g in sorted(set(labels))]
            want = scipy.stats.f_oneway(*groups).statistic
            assert ranked[str(j)] == pytest.approx(want, rel=1e-9)


def test_anova_order_and_degenerate_columns():
    # Column 0 separates classes perfectly with zero scatter: +inf.
    # Column 2 is globally constant: 0. Column 1 is informative but noisy.
    values = np.array([[0.0, 1.0, 5.0],
                       [0.0, 1.2, 5.0],
                       [1.0, 3.1, 5.0],
                       [1.0, 2.9, 5.0]])
    labels = ["x", "x", "y", "y"]
    ranked = anova_f_rank(values, labels, names=["c0", "c1", "c2"])
    assert ranked[0][0] == "c0" and np.isinf(ranked[0][1])
    assert ranked[1][0] == "c1"
    assert ranked[2] == ("c2", 0.0)


def test_anova_requires_two_classes_and_spare_rows():
    values = np.zeros((3, 2))
    with pytest.raises(DataError):
        anova_f_rank(values, ["a", "a", "a"])
    with pytest.raises(DataError):
        anova_f_rank(np.zeros((2, 2)), ["a", "b"])
