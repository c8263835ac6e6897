"""Fold planning, predictors, metrics, and cross-validation honesty."""

import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from pdbpe import (DataError, Dataset, NumericError, PipelineConfig,
                   TimeSeries, UsageError, cross_validate)
from pdbpe import pipeline
from pdbpe.core import MultivariateMode, Variation
from pdbpe.evaluate import (CvPlan, _neighbours, accuracy, auc_roc,
                            kfold_split, ridge_fit_predict, rmse, score_split)
from synth import motif_dataset, random_dataset


# ---------------------------------------------------------------------------
# Fold planning

def test_kfold_deterministic_and_balanced():
    ids = [f"s{i}" for i in range(23)]
    plan_a = kfold_split(ids, 5, seed=3)
    plan_b = kfold_split(ids, 5, seed=3)
    assert plan_a.assignment == plan_b.assignment
    sizes = list(Counter(plan_a.assignment.values()).values())
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


def test_kfold_assignment_is_pinned():
    # Ids and group names out of sorted and first-appearance order; groups of
    # one to three series.
    ids = ["s7", "s2", "s9", "s0", "s5", "s1", "s8", "s3", "s6", "s4"]
    groups = ["g2", "g0", "g2", "g1", "g0", "g3", "g1", "g2", "g4", "g3"]
    assert kfold_split(ids, 3, seed=11).assignment == {
        "s7": 2, "s2": 0, "s9": 0, "s0": 0, "s5": 2, "s1": 1, "s8": 1,
        "s3": 0, "s6": 2, "s4": 1}
    assert kfold_split(ids, 3, seed=11, group_ids=groups).assignment == {
        "s7": 1, "s2": 2, "s9": 1, "s0": 0, "s5": 2, "s1": 1, "s8": 0,
        "s3": 1, "s6": 0, "s4": 1}


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
    preds = ridge_fit_predict(X, y, X, lam=0.0)
    # Oracle: ordinary least squares on the standardized design.
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    w_ls, *_ = np.linalg.lstsq(Z, y - y.mean(), rcond=None)
    assert np.allclose(preds, Z @ w_ls + y.mean(), atol=1e-8)
    assert rmse(y, preds) < 0.02


def test_ridge_penalty_shrinks_weights():
    # Standardized predictions are Z @ w + mean(y), so a smaller weight
    # vector keeps them closer to the mean.
    rng = np.random.default_rng(16)
    X = rng.normal(size=(30, 4))
    y = X @ np.array([2.0, -1.0, 0.5, 3.0]) + rng.normal(size=30)
    small = ridge_fit_predict(X, y, X, lam=0.01)
    large = ridge_fit_predict(X, y, X, lam=1000.0)
    assert np.linalg.norm(large - y.mean()) < np.linalg.norm(small - y.mean())


def test_ridge_singular_at_zero_lambda_is_numeric_error():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # collinear columns
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NumericError, match="positive lam"):
        ridge_fit_predict(X, y, X, lam=0.0)
    # A positive penalty makes the same system solvable.
    assert np.all(np.isfinite(ridge_fit_predict(X, y, X, lam=1.0)))


def test_ridge_constant_column_does_not_divide_by_zero():
    X = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.arange(10.0)
    assert np.all(np.isfinite(ridge_fit_predict(X, y, X, lam=0.1)))


# ---------------------------------------------------------------------------
# kNN

def _knn_oracle(X, labels, q, k, positive):
    """Vote and positive share of one query: sort (distance, row) tuples and
    vote with the documented tie rules."""
    dist = [float(np.linalg.norm(X[i] - q)) for i in range(len(X))]
    top = sorted(range(len(X)), key=lambda i: (dist[i], i))[:k]
    votes, dsum = {}, {}
    for i in top:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        dsum[labels[i]] = dsum.get(labels[i], 0.0) + dist[i]
    vote = min(votes, key=lambda lab: (-votes[lab], dsum[lab] / votes[lab], lab))
    return vote, sum(labels[i] == positive for i in top) / k


def test_knn_matches_brute_force_oracle():
    # Small-integer features with duplicated rows make distance and vote
    # ties common; labels are non-ASCII so their order is by code point.
    rng = np.random.default_rng(17)
    palette = ["\u00e9", "e", "\u03a9", "\u00c9"]
    for _ in range(60):
        n = int(rng.integers(5, 25))
        X = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        X[rng.integers(0, n, size=n // 3)] = X[0]
        labels = [palette[i] for i in rng.integers(0, rng.integers(1, 5), size=n)]
        Q = np.vstack([rng.integers(0, 3, size=(6, 3)), X[:2]]).astype(np.float64)
        k = int(rng.integers(1, n + 1))
        positive = labels[0]
        want = [_knn_oracle(X, labels, q, k, positive) for q in Q]
        # Scored against the oracle's own votes, every row must be right.
        assert score_split(X, labels, Q, [v for v, _ in want],
                           "classification", "accuracy", knn_k=k) == 1.0
        y_test = [positive if i % 2 else "other" for i in range(len(Q))]
        y_bin = [1 if lab == positive else 0 for lab in y_test]
        assert score_split(X, labels, Q, y_test, "classification", "auc",
                           knn_k=k, positive_label=positive) == \
            auc_roc(y_bin, [share for _, share in want])


def _column_loop_neighbours(train_X, query, k):
    acc = np.zeros(len(train_X))
    for j in range(train_X.shape[1]):
        acc += (train_X[:, j] - query[j]) ** 2
    d = np.sqrt(acc)
    index = np.argsort(d, kind="stable")[:k]
    return index, d[index]


@pytest.mark.parametrize("layout", ["F", "C"])
def test_neighbours_sum_each_query_column_by_column(layout):
    rng = np.random.default_rng(23)
    for _ in range(100):
        n, f = int(rng.integers(2, 40)), int(rng.integers(8, 40))
        scale = 10.0 ** rng.integers(-3, 4, size=(n, f))
        train_X = np.asfortranarray(rng.normal(size=(n, f)) * scale)
        train_X[rng.integers(0, n, size=n // 4)] = train_X[0]
        test_X = np.vstack([rng.normal(size=(3, f)) * scale[0], train_X[:2]])
        k = int(rng.integers(1, n + 1))
        index, dist = _neighbours(np.asarray(train_X, order=layout), test_X, k)
        for row, query in enumerate(test_X):
            want_index, want_dist = _column_loop_neighbours(train_X, query, k)
            assert index[row].tolist() == want_index.tolist()
            assert dist[row].tobytes() == want_dist.tobytes()


def test_neighbours_of_one_training_row_sum_pairwise():
    rng = np.random.default_rng(24)
    for _ in range(50):
        f = int(rng.integers(8, 200))
        row = rng.normal(size=f) * 10.0 ** rng.integers(-3, 4, size=f)
        query = rng.normal(size=f)
        _, dist = _neighbours(row[None, :], query[None, :], 1)
        assert dist[0, 0].tobytes() == \
            np.sqrt(np.add.reduce((row - query) ** 2)).tobytes()


def test_neighbours_copies_no_fortran_input():
    train_X = np.asfortranarray(np.random.default_rng(25).normal(size=(4000, 16)))
    tracemalloc.start()
    try:
        _neighbours(train_X, train_X[:1], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One query holds its differences and their squares; a copy of
    # train_X would be a third block of the same size.
    assert peak < 2.5 * train_X.nbytes


def test_knn_vote_tie_breaks_on_mean_distance_then_label():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = ["b", "b", "a", "a"]

    def predicts(X, labels, q, k, want):
        return score_split(X, labels, np.array([q]), [want],
                           "classification", "accuracy", knn_k=k) == 1.0

    # k=4: two votes each; class b is closer on average.
    assert predicts(X, labels, [0.5], 4, "b")
    # Equidistant classes: the label first in code point order wins.
    X2 = np.array([[0.0], [2.0]])
    assert predicts(X2, ["b", "a"], [1.0], 2, "a")
    assert predicts(X2, ["\u00e9", "z"], [1.0], 2, "z")
    # Duplicated rows: the tied equidistant rows come in training row order.
    X3 = np.array([[1.0], [1.0], [1.0]])
    assert predicts(X3, ["\u00e9", "z", "z"], [1.0], 1, "\u00e9")
    for k in (0, 5):
        with pytest.raises(DataError, match="knn_k"):
            score_split(X, labels, np.array([[0.0]]), ["a"],
                        "classification", "accuracy", knn_k=k)
    for task in ("classification", "regression"):
        with pytest.raises(DataError, match="one label per train_X row"):
            score_split(X, labels[:3], np.array([[0.0]]), ["a"], task,
                        "accuracy", knn_k=1)


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
        raise AssertionError("a series was preprocessed or a fold fitted")

    monkeypatch.setattr("pdbpe.evaluate._streams", no_fit)
    monkeypatch.setattr("pdbpe.evaluate._fit", no_fit)
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


def _numeric_labels(ds, bad=None):
    return Dataset(tuple(
        ts.with_annotations(label=bad if i == 3 and bad else str(i % 3))
        for i, ts in enumerate(ds)))


@pytest.mark.parametrize("case,error,message", [
    (dict(task="regression", bad="nan"), DataError,
     "series 's003': label 'nan' is not a finite number"),
    (dict(task="regression", bad="inf"), DataError,
     "series 's003': label 'inf' is not a finite number"),
    (dict(task="regression", bad="-inf"), DataError,
     "series 's003': label '-inf' is not a finite number"),
    (dict(task="regression", ridge_lambda=float("nan")), UsageError,
     "ridge_lambda to be a finite number >= 0, got nan"),
    (dict(task="regression", ridge_lambda=-1.0), UsageError,
     "ridge_lambda to be a finite number >= 0, got -1.0"),
    (dict(task="regression", ridge_lambda=float("inf")), UsageError,
     "ridge_lambda to be a finite number >= 0, got inf"),
    (dict(task="classification", knn_k=16), DataError,
     "knn_k=16 exceeds the smallest training split, 15 series"),
    (dict(task="classification", metric="auc", knn_k=16), DataError,
     "knn_k=16 exceeds the smallest training split, 15 series"),
    (dict(task="classification", knn_k=8, k_grid=[3, 4], inner_folds=2),
     DataError, "knn_k=8 exceeds the smallest training split, 7 series"),
    (dict(task="classification", metric="auc", positive_label="\u00e9"),
     DataError, "positive label '\u00e9' is carried by no series"),
    (dict(task="classification", k_grid=[3, 4.5]), DataError,
     "K must be an integer"),
    (dict(task="classification", w_grid=[4, 16]), DataError,
     "W must be in [1, 15], got 16")],
    ids=["label-nan", "label-inf", "label-minus-inf", "lambda-nan",
         "lambda-negative", "lambda-inf", "knn-k-accuracy", "knn-k-auc",
         "knn-k-inner-plan", "positive-label", "grid-k-not-integer",
         "grid-w-out-of-range"])
def test_cross_validate_rejects_before_any_fit(monkeypatch, case, error,
                                               message):
    def no_fit(*args, **kwargs):
        raise AssertionError("a series was preprocessed or a fold fitted")

    monkeypatch.setattr("pdbpe.evaluate._streams", no_fit)
    monkeypatch.setattr("pdbpe.evaluate._fit", no_fit)
    ds = _labeled_dataset(seed=22)
    case = dict(case)
    if case["task"] == "regression":
        ds = _numeric_labels(ds, case.pop("bad", None))
    plan = kfold_split(ds.ids, 4, seed=0)
    with pytest.raises(error, match=re.escape(message)) as info:
        cross_validate(ds, PipelineConfig(K=4, W=4), plan, **case)
    assert info.type is error  # a UsageError is also a DataError


@pytest.mark.parametrize("case,message", [
    ("unlabelled", "series 's003' has no label"),
    ("empty-fold", "fold 2 leaves an empty train or test split"),
    ("stray-id", "plan and dataset disagree on series ids: ['extra']")])
def test_cross_validate_rejects_labels_and_plans_before_any_fit(
        monkeypatch, case, message):
    def no_fit(*args, **kwargs):
        raise AssertionError("a series was preprocessed or a fold fitted")

    monkeypatch.setattr("pdbpe.evaluate._streams", no_fit)
    monkeypatch.setattr("pdbpe.evaluate._fit", no_fit)
    ds = _labeled_dataset(seed=22)
    plan = kfold_split(ds.ids, 4, seed=0)
    if case == "unlabelled":
        ds = Dataset(tuple(replace(ts, label=None) if i == 3 else ts
                           for i, ts in enumerate(ds)))
    elif case == "empty-fold":
        # A plan built by hand: no series is dealt to fold 2.
        plan = CvPlan(k=3, seed=0, assignment={sid: i % 2 for i, sid
                                               in enumerate(ds.ids)})
    else:
        plan = kfold_split([*ds.ids, "extra"], 4, seed=0)
    with pytest.raises(DataError, match=re.escape(message)) as info:
        cross_validate(ds, PipelineConfig(K=4, W=4), plan,
                       task="classification")
    assert info.type is DataError


def test_cross_validate_auc_needs_exactly_two_classes():
    ds = Dataset(tuple(ts.with_annotations(label="ABC"[i % 3])
                       for i, ts in enumerate(_labeled_dataset(seed=22))))
    plan = kfold_split(ds.ids, 2, seed=0)
    with pytest.raises(DataError, match="^auc needs exactly 2 classes$"):
        cross_validate(ds, PipelineConfig(K=4, W=4), plan,
                       task="classification", metric="auc")


@pytest.mark.parametrize("mode,per_series", [
    (MultivariateMode.PER_CHANNEL, 2), (MultivariateMode.WHITEN_COLLAPSE, 1)])
def test_cross_validate_preprocesses_each_series_once(monkeypatch, mode,
                                                      per_series):
    # A stream depends on its own series only, so every fold and grid point
    # slices one stream per series and W, and only PAA runs per W: one
    # collapse per series, or one z-normalization per series and channel,
    # whatever the grid.
    calls = Counter()
    for name in ("collapse_series", "zscore_normalize"):
        def counted(*args, _real=getattr(pipeline, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(pipeline, name, counted)
    ds = random_dataset(np.random.default_rng(40), n_series=12, n_channels=2,
                        length=48)
    plan = kfold_split(ds.ids, 3, seed=0)
    config = PipelineConfig(K=3, W=4, multivariate_mode=mode)
    name = ("zscore_normalize" if mode is MultivariateMode.PER_CHANNEL
            else "collapse_series")
    cross_validate(ds, config, plan, "classification", knn_k=3)
    assert calls == {name: per_series * len(ds)}
    calls.clear()
    cross_validate(ds, config, plan, "classification", knn_k=3,
                   k_grid=[3, 4], w_grid=[2, 4], inner_folds=2)
    assert calls == {name: per_series * len(ds)}


def _grouped(ds, plan, missing_group):
    """ds with a group id on every series, and a series whose mean
    overflows before one in fold 0 of plan; with missing_group, that later
    series has no group id."""
    fold = [plan.assignment[sid] for sid in ds.ids]
    bad = fold.index(1)
    later = fold.index(0, bad)
    series = []
    for i, ts in enumerate(ds):
        values = np.full(ts.length, 1e308) if i == bad else ts.values
        series.append(TimeSeries(
            id=ts.id, channels=ts.channels, values=values, mask=ts.mask,
            label=ts.label,
            group_id=None if missing_group and i == later else f"g{i % 4}"))
    return Dataset(tuple(series)), ds.ids[bad], ds.ids[later]


def test_cross_validate_checks_group_ids_before_any_stream(monkeypatch):
    # With centroids, every series' group id is checked before any series is
    # preprocessed: a missing one is a DataError even when an earlier series
    # would fail to normalize, and no fold is fitted first.
    def no_fit(*args, **kwargs):
        raise AssertionError("a series was preprocessed or a fold fitted")

    ds = _labeled_dataset(seed=24)
    plan = kfold_split(ds.ids, 4, seed=0)
    faulty, _bad, later = _grouped(ds, plan, missing_group=True)
    monkeypatch.setattr("pdbpe.evaluate._streams", no_fit)
    monkeypatch.setattr("pdbpe.evaluate._fit", no_fit)
    with pytest.raises(DataError) as info:
        cross_validate(faulty, PipelineConfig(K=4, W=4), plan,
                       "classification", centroids=True)
    assert str(info.value) == (f"series {later!r} has no group id; centroid "
                               f"augmentation requires one per series")


@pytest.mark.parametrize("mode,reason", [
    (MultivariateMode.PER_CHANNEL, "values too large to normalize: their "
                                   "mean or standard deviation overflows"),
    (MultivariateMode.WHITEN_COLLAPSE, "values too large to whiten: their "
                                       "covariance overflows")])
def test_cross_validate_names_a_degenerate_series(mode, reason):
    ds = _labeled_dataset(seed=24)
    plan = kfold_split(ds.ids, 4, seed=0)
    faulty, bad, _later = _grouped(ds, plan, missing_group=False)
    # A W grid normalizes each series once too, so it names the same one.
    for w_grid in (None, [2, 4]):
        with pytest.raises(NumericError) as info:
            cross_validate(faulty,
                           PipelineConfig(K=4, W=4, multivariate_mode=mode),
                           plan, "classification", centroids=True,
                           w_grid=w_grid)
        assert str(info.value) == f"series {bad!r}: {reason}"


def _oracle_pick(train, inner, points, task, **kwargs):
    """The grid point with the best mean inner score, the first on ties, and
    every point's mean, from one plain cross_validate run per point."""
    means = [cross_validate(train, point, inner, task, **kwargs).mean
             for point in points]
    best = min(means) if task == "regression" else max(means)
    return points[means.index(best)], means


def _inner_plan(ds, plan, fold, inner_folds, grouped):
    train = Dataset(tuple(ts for ts in ds if plan.assignment[ts.id] != fold))
    return train, kfold_split(train.ids, inner_folds,
                              seed=plan.seed + 101 + fold,
                              group_ids=[ts.group_id for ts in train]
                              if grouped else None)


@pytest.mark.parametrize("grouped", [False, True])
def test_cross_validate_nested_grid_picks_per_fold(grouped):
    # With a K grid, each outer fold's config is the grid point with the best
    # mean score on an inner plan over that fold's training rows (seed
    # plan.seed + 101 + fold, group-aware when the outer plan is), and the
    # fold is fitted with it.
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
    points = [replace(base, K=3), replace(base, K=4)]
    for f in result.folds:
        train, inner = _inner_plan(ds, plan, f.fold, 2, grouped)
        expected, _ = _oracle_pick(train, inner, points, "classification",
                                   knn_k=3)
        assert f.config == expected


def test_cross_validate_prefers_smallest_config_on_ties():
    # Trivially separable shapes (levels are erased by per-series
    # normalization): every grid point scores accuracy 1.0 on every inner
    # plan, so each fold keeps the smallest K, then the smallest W, however
    # the grids are ordered.
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
    base = PipelineConfig(K=4, W=2)
    result = cross_validate(ds, base, plan, "classification", knn_k=1,
                            k_grid=[6, 4, 6], w_grid=[4, 2], inner_folds=2)
    assert [(f.config.K, f.config.W) for f in result.folds] == [(4, 2)] * 3
    points = [replace(base, K=K, W=W) for K in (4, 6) for W in (2, 4)]
    for f in result.folds:
        train, inner = _inner_plan(ds, plan, f.fold, 2, False)
        _, means = _oracle_pick(train, inner, points, "classification",
                                knn_k=1)
        assert means == [1.0] * 4


def test_score_split_direct():
    train_X = np.array([[0.0], [0.1], [5.0], [5.1]])
    y_train = ["n", "n", "p", "p"]
    test_X = np.array([[0.05], [5.05]])
    acc = score_split(train_X, y_train, test_X, ["n", "p"],
                      "classification", "accuracy", knn_k=1)
    assert acc == 1.0


# Fold values of a fixed run for each scoring path, as float.hex(). They were
# recorded from the per-row k-NN predictors and the separate ridge fit and
# predict functions that score_split replaced, and must not move.
_PINNED_FOLDS = {
    "accuracy": ["0x1.0000000000000p-1", "0x1.3333333333333p-1",
                 "0x1.0000000000000p-1"],
    "auc": ["0x1.ae147ae147ae1p-2", "0x1.a000000000000p-1",
            "0x1.1555555555555p-1"],
    "auc-positive-label": ["0x1.0a3d70a3d70a4p-2", "0x1.8000000000000p-3",
                           "0x1.6186186186186p-1"],
    "accuracy-three-classes": ["0x1.999999999999ap-4", "0x1.3333333333333p-2",
                               "0x1.999999999999ap-2"],
    "rmse-lambda-0.5": ["0x1.2fdc980577565p+0", "0x1.eb662f0dc413cp-1",
                        "0x1.0362411e6893fp+0"],
    "rmse-lambda-0": ["0x1.f273e0c035155p-1", "0x1.ca5196592d64cp-1",
                      "0x1.446ddfff358bbp-1"],
    # Nested runs pin each fold's chosen (K, W) with its value, as the
    # recursive grid search before the one fold loop chose them.
    "nested-k-grid": [(3, 4, "0x1.0000000000000p-1"),
                      (4, 4, "0x1.3333333333333p-2"),
                      (4, 4, "0x1.3333333333333p-1")],
    "nested-rmse-grid": [(3, 4, "0x1.2fdc980577565p+0"),
                         (3, 8, "0x1.90cd194a4777ap+0"),
                         (5, 4, "0x1.082457563b3dep+0")],
    "nested-auc-w-grid": [(3, 8, "0x1.c28f5c28f5c29p-1"),
                          (3, 2, "0x1.2000000000000p-1"),
                          (3, 2, "0x1.3555555555555p-1")],
    # Recorded when each W of a grid still normalized every series again.
    "nested-whiten-w-grid": [(3, 4, "0x1.999999999999ap-2"),
                             (3, 2, "0x1.999999999999ap-2"),
                             (3, 4, "0x1.3333333333333p-1")],
    "nested-centroids-w-grid": [(3, 8, "0x1.999999999999ap-2"),
                                (3, 8, "0x1.999999999999ap-1"),
                                (3, 8, "0x1.6666666666666p-1")],
}


@pytest.mark.parametrize("case", sorted(_PINNED_FOLDS))
def test_cross_validate_fold_values_are_pinned(case):
    ds, _ = motif_dataset(n_series=30, length=64, motif_len=8, amplitude=1.2,
                          noise=0.6, missing_rate=0.0, seed=31)
    three = Dataset(tuple(ts.with_annotations(label="\u00c7" if i % 3 == 2
                                              else None)
                          for i, ts in enumerate(ds)))
    numeric = Dataset(tuple(
        ts.with_annotations(label=str((i * 7) % 5 * 0.5 + (ts.label == "A")))
        for i, ts in enumerate(ds)))
    rng = np.random.default_rng(32)
    # A second channel that mixes the first with fresh noise, so whitening
    # has a correlation to remove.
    two = Dataset(tuple(TimeSeries(
        id=ts.id, channels=("a", "b"),
        values=np.column_stack([ts.values[:, 0], 0.6 * ts.values[:, 0]
                                + rng.normal(0.0, 0.5, ts.length)]),
        mask=np.ones((ts.length, 2), dtype=bool), label=ts.label)
        for ts in ds))
    grouped = Dataset(tuple(ts.with_annotations(group_id=f"g{i % 6}")
                            for i, ts in enumerate(ds)))
    plan = kfold_split(ds.ids, 3, seed=1)
    group_plan = kfold_split(grouped.ids, 3, seed=1,
                             group_ids=[ts.group_id for ts in grouped])
    config = PipelineConfig(K=3, W=4)
    whiten = replace(config, multivariate_mode=MultivariateMode.WHITEN_COLLAPSE)
    few_columns = PipelineConfig(K=3, W=8, P=0.5,
                                 variations=(Variation.ORIGINAL,))
    runs = {
        "accuracy": lambda: cross_validate(ds, config, plan, "classification",
                                           knn_k=3),
        "auc": lambda: cross_validate(ds, config, plan, "classification",
                                      metric="auc", knn_k=4),
        "auc-positive-label": lambda: cross_validate(
            three, config, plan, "classification", metric="auc", knn_k=4,
            positive_label="\u00c7"),
        "accuracy-three-classes": lambda: cross_validate(
            three, config, plan, "classification", knn_k=4),
        "rmse-lambda-0.5": lambda: cross_validate(
            numeric, config, plan, "regression", ridge_lambda=0.5),
        "rmse-lambda-0": lambda: cross_validate(
            numeric, few_columns, plan, "regression", ridge_lambda=0.0),
        "nested-k-grid": lambda: cross_validate(
            ds, config, plan, "classification", knn_k=3, k_grid=[3, 4],
            inner_folds=2),
        "nested-rmse-grid": lambda: cross_validate(
            numeric, config, plan, "regression", ridge_lambda=0.5,
            k_grid=[3, 5], w_grid=[4, 8], inner_folds=2),
        "nested-auc-w-grid": lambda: cross_validate(
            ds, config, plan, "classification", metric="auc", knn_k=4,
            w_grid=[2, 4, 8], inner_folds=2),
        "nested-whiten-w-grid": lambda: cross_validate(
            two, whiten, plan, "classification", knn_k=3, w_grid=[2, 4],
            inner_folds=2),
        "nested-centroids-w-grid": lambda: cross_validate(
            grouped, config, group_plan, "classification", knn_k=3,
            centroids=True, w_grid=[4, 8], inner_folds=2),
    }
    result = runs[case]()
    got = [f.value.hex() for f in result.folds]
    if case.startswith("nested"):
        got = [(f.config.K, f.config.W, v) for f, v in zip(result.folds, got)]
    assert got == _PINNED_FOLDS[case]
