"""Fold planning, predictors, metrics, and cross-validation honesty."""

import random

import numpy as np
import pytest

from pdbpe import (DataError, Dataset, NumericError, PipelineConfig,
                   TimeSeries, UsageError, cross_validate)
from pdbpe.evaluate import (accuracy, auc_roc, grid_search, kfold_split,
                            knn_predict, ridge_fit, ridge_predict, rmse,
                            score_split)
from synth import motif_dataset, random_dataset


# ---------------------------------------------------------------------------
# Fold planning

def test_kfold_deterministic_and_balanced():
    ids = [f"s{i}" for i in range(23)]
    plan_a = kfold_split(ids, 5, seed=3)
    plan_b = kfold_split(ids, 5, seed=3)
    assert plan_a.assignment == plan_b.assignment
    sizes = [len(plan_a.fold_ids(f)) for f in range(5)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23
    plan_c = kfold_split(ids, 5, seed=4)
    assert plan_c.assignment != plan_a.assignment


def test_kfold_group_aware_keeps_groups_whole():
    rng = random.Random(6)
    ids = [f"s{i}" for i in range(30)]
    groups = [f"g{i // 3}" for i in range(30)]
    plan = kfold_split(ids, 4, seed=1, group_ids=groups)
    fold_of_group = {}
    for sid, gid in zip(ids, groups):
        fold = plan.assignment[sid]
        assert fold_of_group.setdefault(gid, fold) == fold
    assert plan.group_aware
    # Folds still balanced at the group level.
    group_folds = list(fold_of_group.values())
    counts = [group_folds.count(f) for f in range(4)]
    assert max(counts) - min(counts) <= 1


def test_kfold_validation_errors():
    with pytest.raises(DataError, match="series id 'a' appears more than once"):
        kfold_split(["b", "a", "a"], 2)
    with pytest.raises(DataError):
        kfold_split(["a", "b", "c"], 1)
    with pytest.raises(DataError, match="cannot deal 3 series into 4 folds"):
        kfold_split(["a", "b", "c"], 4)
    with pytest.raises(DataError, match="cannot deal 2 groups into 3 folds"):
        kfold_split(["a", "b", "c"], 3, group_ids=["g", "g", "h"])
    with pytest.raises(DataError, match="got 1 group ids for 2 series"):
        kfold_split(["a", "b"], 2, group_ids=["g"])
    # A missing group id is not a group of its own: it would pool every
    # series that lacks one, and a real group named "None" with them.
    for missing in (None, ""):
        with pytest.raises(DataError, match="series 'b' has no group id"):
            kfold_split(["a", "b", "c", "d"], 2,
                        group_ids=["None", missing, missing, "h"])


# ---------------------------------------------------------------------------
# Ridge

def test_ridge_zero_lambda_matches_least_squares():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 5))
    w_true = rng.normal(size=5)
    y = X @ w_true + 0.01 * rng.normal(size=40)
    model = ridge_fit(X, y, lam=0.0)
    # Oracle: ordinary least squares on the standardized design.
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    w_ls, *_ = np.linalg.lstsq(Z, y - y.mean(), rcond=None)
    assert np.allclose(model.weights, w_ls, atol=1e-8)
    preds = ridge_predict(model, X)
    assert rmse(y, preds) < 0.02


def test_ridge_penalty_shrinks_weights():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([2.0, -1.0, 0.5, 3.0]) + rng.normal(size=30)
    small = ridge_fit(X, y, lam=0.01)
    large = ridge_fit(X, y, lam=1000.0)
    assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)


def test_ridge_singular_at_zero_lambda_is_numeric_error():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NumericError, match="positive lam"):
        ridge_fit(X, y, lam=0.0)
    # A positive penalty makes the same system solvable.
    model = ridge_fit(X, y, lam=1.0)
    assert np.all(np.isfinite(model.weights))


def test_ridge_constant_column_does_not_divide_by_zero():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.arange(10.0)
    model = ridge_fit(X, y, lam=0.1)
    assert np.all(np.isfinite(ridge_predict(model, X)))


# ---------------------------------------------------------------------------
# kNN

def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(5, 25))
        X = rng.normal(size=(n, 3))
        labels = [str(rng.integers(0, 3)) for _ in range(n)]
        q = rng.normal(size=3)
        k = int(rng.integers(1, n + 1))
        got = knn_predict(X, labels, q, k)
        # Independent derivation: sort (distance, row) tuples, vote with the
        # same tie rules.
        ranked = sorted(range(n), key=lambda i: (float(np.linalg.norm(X[i] - q)), i))
        top = ranked[:k]
        votes = {}
        dsum = {}
        for i in top:
            votes[labels[i]] = votes.get(labels[i], 0) + 1
            dsum[labels[i]] = dsum.get(labels[i], 0.0) + float(np.linalg.norm(X[i] - q))
        want = min(votes, key=lambda lab: (-votes[lab], dsum[lab] / votes[lab], lab))
        assert got == want


def test_knn_vote_tie_breaks_on_mean_distance_then_label():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = ["b", "b", "a", "a"]
    # k=4: two votes each; class b is closer on average.
    assert knn_predict(X, labels, np.array([0.5]), 4) == "b"
    # Equidistant classes: lexicographically smaller label wins.
    X2 = np.array([[0.0], [2.0]])
    assert knn_predict(X2, ["b", "a"], np.array([1.0]), 2) == "a"
    with pytest.raises(DataError):
        knn_predict(X, labels, np.array([0.0]), 0)


# ---------------------------------------------------------------------------
# Metrics

def test_rmse_and_accuracy_basics():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert accuracy(["a", "b", "c"], ["a", "b", "x"]) == pytest.approx(2 / 3)
    with pytest.raises(DataError):
        accuracy([], [])


def test_auc_tied_scores_use_midranks():
    assert auc_roc([0, 0, 1, 1], [0.5, 0.5, 0.5, 0.9]) == pytest.approx(0.75)
    assert auc_roc([0, 1], [0.1, 0.9]) == 1.0
    assert auc_roc([1, 0], [0.1, 0.9]) == 0.0
    assert auc_roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)
    # NaN ties nothing: NaN scores rank last, one rank each in input order.
    assert auc_roc([1, 0] * 8 + [1], [0.5] + [np.nan] * 16) == 0.5
    with pytest.raises(DataError):
        auc_roc([1, 1], [0.5, 0.6])


def test_auc_matches_pairwise_count_oracle():
    rng = np.random.default_rng(18)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid forces ties
        got = auc_roc(y, scores)
        pos = scores[y == 1]
        neg = scores[y == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                   for p in pos for q in neg)
        assert got == pytest.approx(wins / (len(pos) * len(neg)))


# ---------------------------------------------------------------------------
# Cross-validation

def _labeled_dataset(seed=0, n=20):
    ds, _ = motif_dataset(n_series=n, length=96, motif_len=8, amplitude=3.0,
                          noise=0.25, missing_rate=0.0, seed=seed)
    return ds


def test_cross_validate_classification_reports_per_fold():
    ds = _labeled_dataset(seed=19)
    plan = kfold_split(ds.ids, 4, seed=2)
    result = cross_validate(ds, PipelineConfig(K=4, W=4), plan,
                            task="classification")
    assert result.metric == "accuracy"
    assert len(result.folds) == 4
    assert all(0.0 <= f.value <= 1.0 for f in result.folds)
    assert result.mean == pytest.approx(np.mean([f.value for f in result.folds]))
    # Every fold refits: the fitted models must differ across folds.
    prints = {f.model_fingerprint for f in result.folds}
    assert len(prints) == 4
    for f in result.folds:
        assert f.n_train + f.n_test == len(ds)
        assert f.n_patterns_emitted <= f.n_patterns_identified


def test_cross_validate_regression_with_numeric_labels():
    rng = np.random.default_rng(20)
    series = []
    for i in range(16):
        scale = rng.uniform(0.5, 3.0)
        vals = np.sin(np.linspace(0, 8, 64)) * scale + rng.normal(0, 0.1, 64)
        series.append(TimeSeries.univariate(f"s{i}", vals, label=str(scale)))
    ds = Dataset(tuple(series))
    plan = kfold_split(ds.ids, 4, seed=3)
    result = cross_validate(ds, PipelineConfig(K=4, W=2), plan,
                            task="regression", ridge_lambda=1.0)
    assert result.metric == "rmse"
    assert all(np.isfinite(f.value) for f in result.folds)


def test_cross_validate_auc_uses_positive_label():
    ds = _labeled_dataset(seed=21)
    plan = kfold_split(ds.ids, 3, seed=4)
    result = cross_validate(ds, PipelineConfig(K=4, W=4), plan,
                            task="classification", metric="auc",
                            positive_label="A")
    assert all(0.0 <= f.value <= 1.0 for f in result.folds)


def test_cross_validate_validates_inputs():
    ds = _labeled_dataset(seed=22)
    plan = kfold_split(ds.ids, 4, seed=0)
    with pytest.raises(DataError):
        cross_validate(ds, PipelineConfig(K=4, W=4), plan, task="clustering")
    with pytest.raises(DataError):
        cross_validate(ds, PipelineConfig(K=4, W=4), plan,
                       task="regression", metric="accuracy")
    with pytest.raises(DataError):
        cross_validate(ds, PipelineConfig(K=4, W=4), plan, task="regression")


def test_cross_validate_flag_rules_fail_before_any_fit(monkeypatch):
    # A knn_k below 1 for k-NN, or an inner split of one fold for a grid of
    # more than one distinct point, is a UsageError raised before the first
    # fold is fitted.
    def no_fit(*args, **kwargs):
        raise AssertionError("fit_pipeline was called")

    monkeypatch.setattr("pdbpe.evaluate.fit_pipeline", no_fit)
    ds = _labeled_dataset(seed=22)
    plan = kfold_split(ds.ids, 4, seed=0)
    config = PipelineConfig(K=4, W=4)
    for metric in ("accuracy", "auc"):
        with pytest.raises(UsageError, match="knn_k"):
            cross_validate(ds, config, plan, task="classification",
                           metric=metric, knn_k=0)
    with pytest.raises(UsageError, match="inner_folds"):
        cross_validate(ds, config, plan, task="classification",
                       k_grid=[3, 4], inner_folds=1)
    with pytest.raises(UsageError, match="at least 2 folds, got 1"):
        kfold_split(ds.ids, 1)


@pytest.mark.parametrize("grouped", [False, True])
def test_cross_validate_nested_grid_picks_per_fold(grouped):
    # With a K grid, each outer fold's config is the one grid_search picks on
    # an inner plan over that fold's training rows (seed plan.seed + 101 +
    # fold, group-aware when the outer plan is), and the fold is fitted with
    # it.
    ds = _labeled_dataset(seed=23, n=18)
    if grouped:
        ds = Dataset(tuple(ts.with_annotations(group_id=f"g{i // 2}")
                           for i, ts in enumerate(ds)))
    plan = kfold_split(ds.ids, 3, seed=6,
                       group_ids=[ts.group_id for ts in ds] if grouped else None)
    base = PipelineConfig(K=3, W=4)
    result = cross_validate(ds, base, plan, task="classification", knn_k=3,
                            k_grid=[3, 4], inner_folds=2)
    assert len(result.folds) == 3
    assert {f.config.K for f in result.folds} == {3, 4}
    for f in result.folds:
        assert (f.config.K, f.config.W) in {(3, 4), (4, 4)}
        train = Dataset(tuple(ts for ts in ds
                              if plan.assignment[ts.id] != f.fold))
        inner = kfold_split(train.ids, 2, seed=plan.seed + 101 + f.fold,
                            group_ids=[ts.group_id for ts in train]
                            if grouped else None)
        expected, _ = grid_search(train, [3, 4], [4], inner, "classification",
                                  base, knn_k=3)
        assert f.config == expected


def test_score_split_direct():
    train_X = np.array([[0.0], [0.1], [5.0], [5.1]])
    y_train = ["n", "n", "p", "p"]
    test_X = np.array([[0.05], [5.05]])
    acc = score_split(train_X, y_train, test_X, ["n", "p"],
                      "classification", "accuracy", knn_k=1)
    assert acc == 1.0


def test_grid_search_prefers_smallest_config_on_ties():
    # Trivially separable shapes (levels are erased by per-series
    # normalization): every grid point scores accuracy 1.0, so the ascending
    # walk with strict improvement keeps (K, W) minimal.
    t = np.arange(48)
    square = np.where(t % 8 < 4, 1.0, -1.0)
    ramp = t / 48.0
    series = []
    for i in range(12):
        vals = square if i % 2 == 0 else ramp
        label = "square" if i % 2 == 0 else "ramp"
        series.append(TimeSeries.univariate(f"s{i}", vals, label=label))
    ds = Dataset(tuple(series))
    plan = kfold_split(ds.ids, 3, seed=5)
    best, table = grid_search(ds, [4, 6], [2, 4], plan, "classification",
                              PipelineConfig(K=4, W=2), knn_k=1)
    assert [p.mean_value for p in table] == [1.0] * 4
    assert (best.K, best.W) == (4, 2)
    assert len(table) == 4
    # Grid points are visited in ascending (K, W) order.
    assert [(p.K, p.W) for p in table] == [(4, 2), (4, 4), (6, 2), (6, 4)]
