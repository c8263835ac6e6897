"""Schema emission, counting, pruning, centroids, and ANOVA ranking."""

import numpy as np
import pytest
import scipy.stats

from pdbpe import DataError
from pdbpe.bpe import Corpus, fit_bpe
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
    return fit_bpe(Corpus.from_sequences([[0, 1, 0, 1, 0, 1]]), base_size=2,
                   P=0.2, U=0.4)


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
    vocab = fit_bpe(Corpus.from_sequences(corpus), base_size=3, P=0.2,
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
    ids = [f"s{i}" for i in range(len(sequences))]
    encoded = {("v", Variation.ORIGINAL): Corpus.from_sequences(sequences)}
    return assemble_matrix(ids, encoded, FeatureSchema(columns)).values


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
               Corpus.from_sequences([[2, 2, 2], [0, 0, 1]])}
    mat = assemble_matrix(["a", "b"], encoded, schema)
    assert mat.ids == ("a", "b")
    assert np.allclose(mat.values[0], [0.0, 0.0, 1.0])
    assert np.allclose(mat.values[1], [2 / 3, 1 / 3, 0.0])
    with pytest.raises(DataError):
        assemble_matrix(["a"], {}, schema)


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
    # Build two columns with exact correlation 0.95: at threshold 0.95
    # (strictly greater comparison) both must be kept.
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
    corr = np.corrcoef(cols.T)[0, 1]
    assert abs(corr - 0.95) < 1e-12
    _, kept = prune_correlated(cols, threshold=0.95)
    assert kept.tolist() == [True, True]


def test_prune_correlated_rejects_constant_columns():
    with pytest.raises(DataError):
        prune_correlated(np.ones((4, 2)))


def test_centroid_augment_group_means():
    values = np.array([[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])
    out, table = centroid_augment(values, ["g1", "g1", "g2"])
    assert out.shape == (3, 4)
    assert np.allclose(out[0, 2:], [2.0, 1.0])
    assert np.allclose(out[1, 2:], [2.0, 1.0])
    assert np.allclose(out[2, 2:], [5.0, 4.0])
    assert np.allclose(table["g1"], [2.0, 1.0])
    with pytest.raises(DataError):
        centroid_augment(values, ["g1", None, "g2"])


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
