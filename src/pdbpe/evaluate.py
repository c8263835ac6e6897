"""Cross-validation harness: fold planning, simple predictors, metrics,
and deterministic hyperparameter grid search.

Every fold refits the entire pipeline on its training rows only, so no
discretization, vocabulary, or pruning state leaks across the split.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Dataset, PipelineConfig, require_group_ids
from .errors import DataError, NumericError, UsageError
from .model_io import fingerprint_model
from .pipeline import fit_pipeline, transform_dataset


@dataclass(frozen=True)
class CvPlan:
    """Fold assignment for every series id."""

    k: int
    seed: int
    assignment: dict[str, int]
    group_aware: bool = False

    def fold_ids(self, fold: int) -> list[str]:
        return [sid for sid, f in self.assignment.items() if f == fold]


def kfold_split(ids: Sequence[str], k: int, seed: int = 0,
                group_ids: Sequence[str] | None = None) -> CvPlan:
    """Deterministic k-fold assignment: shuffle units with the seeded RNG,
    then deal them round-robin. With group_ids, whole groups are dealt so no
    group straddles folds; fold sizes differ by at most one unit, and a
    series whose group id is None or "" is a DataError. k < 2 is a
    UsageError."""
    if k < 2:
        raise UsageError(f"k-fold cross-validation needs at least 2 folds, "
                         f"got {k}")
    ids = list(ids)
    if len(set(ids)) != len(ids):
        dup = next(sid for sid, n in Counter(ids).items() if n > 1)
        raise DataError(f"series id {dup!r} appears more than once")
    group_aware = group_ids is not None
    if group_aware:
        if len(group_ids) != len(ids):
            raise DataError(f"got {len(group_ids)} group ids for "
                            f"{len(ids)} series")
        require_group_ids((f"series {sid!r}" for sid in ids), group_ids,
                          "group-aware folds require one per series")
    # Without groups each series is a unit of its own.
    members: dict[str, list[str]] = {}
    for sid, key in zip(ids, group_ids if group_aware else ids):
        members.setdefault(str(key), []).append(sid)
    if k > len(members):
        units = "groups" if group_aware else "series"
        raise DataError(f"cannot deal {len(members)} {units} into {k} folds")
    shuffled = list(members)
    random.Random(seed).shuffle(shuffled)
    assignment: dict[str, int] = {}
    for i, unit in enumerate(shuffled):
        for sid in members[unit]:
            assignment[sid] = i % k
    # Keep id order canonical in the mapping.
    assignment = {sid: assignment[sid] for sid in ids}
    return CvPlan(k=k, seed=seed, assignment=assignment, group_aware=group_aware)


# ---------------------------------------------------------------------------
# Predictors

@dataclass
class RidgeModel:
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    weights: np.ndarray
    intercept: float


def ridge_fit(X, y, lam: float = 1.0) -> RidgeModel:
    """Least squares with an L2 penalty on standardized coefficients.

    Features are standardized with training statistics and the target is
    centered, so the intercept is unpenalized. A singular system at lam=0 is
    a hard error suggesting a positive lam.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise DataError("ridge_fit: X must be (n x f) and y length n")
    if lam < 0:
        raise DataError("ridge_fit: lam must be >= 0")
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < 1e-12] = 1.0
    Z = (X - mean) / scale
    y_mean = float(y.mean())
    yc = y - y_mean
    gram = Z.T @ Z + lam * np.eye(Z.shape[1])
    try:
        # Cholesky doubles as the positive-definiteness check.
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NumericError("ridge system is singular at lam=0; "
                           "use a positive lam") from None
    rhs = Z.T @ yc
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return RidgeModel(feature_mean=mean, feature_scale=scale, weights=w,
                      intercept=y_mean)


def ridge_predict(model: RidgeModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Z = (X - model.feature_mean) / model.feature_scale
    return Z @ model.weights + model.intercept


def _nearest(train_X, query, k: int, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k nearest training rows (Euclidean; distance ties keep
    training row order) and the distances to every training row."""
    train_X = np.asarray(train_X, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    n = train_X.shape[0]
    if not 1 <= k <= n:
        raise DataError(f"{caller}: k={k} outside [1, {n}]")
    diffs = train_X - query
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    return np.argsort(dists, kind="stable")[:k], dists


def knn_predict(train_X, train_labels: Sequence[str], query, k: int) -> str:
    """Majority vote among the k nearest training rows (Euclidean).

    Vote ties go to the candidate with the smallest mean distance, then to
    the lexicographically smallest label. Neighbor-rank ties are broken by
    training row order (stable sort).
    """
    order, dists = _nearest(train_X, query, k, "knn_predict")
    if len(train_labels) != len(dists):
        raise DataError("knn_predict: labels length mismatch")
    votes: dict[str, int] = {}
    dist_sum: dict[str, float] = {}
    for idx in order:
        lab = str(train_labels[idx])
        votes[lab] = votes.get(lab, 0) + 1
        dist_sum[lab] = dist_sum.get(lab, 0.0) + float(dists[idx])
    best = min(votes,
               key=lambda lab: (-votes[lab], dist_sum[lab] / votes[lab], lab))
    return best


def knn_positive_fraction(train_X, train_labels: Sequence[str], query, k: int,
                          positive: str) -> float:
    """Fraction of the k nearest neighbors carrying the positive label;
    a ranking score for AUC."""
    order, _ = _nearest(train_X, query, k, "knn")
    hits = sum(1 for idx in order if str(train_labels[idx]) == positive)
    return hits / k


# ---------------------------------------------------------------------------
# Metrics

def rmse(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise DataError("rmse: shapes must match and be non-empty")
    return float(np.sqrt(((y_true - y_pred) ** 2).mean()))


def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    if len(y_true) != len(y_pred) or not y_true:
        raise DataError("accuracy: lengths must match and be non-empty")
    hits = sum(1 for a, b in zip(y_true, y_pred) if str(a) == str(b))
    return hits / len(y_true)


def auc_roc(y_true, scores) -> float:
    """Area under the ROC curve via the rank statistic with midranks for
    tied scores. y_true holds 0/1; a single represented class is an error."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.size == 0:
        raise DataError("auc_roc: shapes must match and be non-empty")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("auc_roc: needs both classes present")
    # NaN equals nothing, so each NaN score is a tie group of its own.
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    group = np.cumsum(np.r_[True, ordered[1:] != ordered[:-1]]) - 1
    counts = np.bincount(group)
    ranks = np.empty(y.size, dtype=np.float64)
    ranks[order] = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# Cross-validation

@dataclass
class FoldResult:
    fold: int
    n_train: int
    n_test: int
    metric: str
    value: float
    config: PipelineConfig
    n_features: int
    n_patterns_identified: int
    n_patterns_emitted: int
    model_fingerprint: str


@dataclass
class CvResult:
    metric: str
    folds: list[FoldResult]

    @property
    def mean(self) -> float:
        return float(np.mean([f.value for f in self.folds]))


def _series_labels(dataset: Dataset, task: str) -> list:
    labels = []
    for ts in dataset:
        if ts.label is None:
            raise DataError(f"series {ts.id!r} has no label")
        if task == "regression":
            try:
                labels.append(float(ts.label))
            except (TypeError, ValueError):
                raise DataError(f"series {ts.id!r}: label {ts.label!r} is not "
                                "numeric but the task is regression") from None
        else:
            labels.append(str(ts.label))
    return labels


def score_split(train_X, y_train, test_X, y_test, task: str, metric: str,
                knn_k: int = 5, ridge_lambda: float = 1.0,
                positive_label: str | None = None) -> float:
    """Train the task's predictor on one split and score the held-out rows."""
    if task == "regression":
        predictor = ridge_fit(train_X, y_train, lam=ridge_lambda)
        preds = ridge_predict(predictor, test_X)
        return rmse(y_test, preds)
    if metric == "accuracy":
        preds = [knn_predict(train_X, y_train, row, knn_k) for row in test_X]
        return accuracy(y_test, preds)
    pos = positive_label
    if pos is None:
        classes = sorted(set(y_train) | set(y_test))
        if len(classes) != 2:
            raise DataError("auc needs exactly 2 classes")
        pos = classes[-1]
    scores = [knn_positive_fraction(train_X, y_train, row, knn_k, pos)
              for row in test_X]
    y_bin = np.array([1 if lab == pos else 0 for lab in y_test])
    return auc_roc(y_bin, scores)


def cross_validate(dataset: Dataset, config: PipelineConfig, plan: CvPlan,
                   task: str, metric: str | None = None, knn_k: int = 5,
                   ridge_lambda: float = 1.0, positive_label: str | None = None,
                   centroids: bool = False, k_grid: Sequence[int] | None = None,
                   w_grid: Sequence[int] | None = None,
                   inner_folds: int = 3) -> CvResult:
    """Refit the pipeline per fold and score held-out series.

    task is "regression" (ridge, rmse) or "classification" (k-NN, accuracy
    or auc); another task, a metric the task cannot use, or a knn_k below 1
    for classification is a UsageError.
    The fitted state per fold depends only on that fold's training rows;
    fingerprints of the fitted models are recorded so tests can verify the
    separation.

    k_grid and w_grid default to config's K and W. When they hold more than
    one (K, W) point, each fold picks its config by grid_search on an inner
    plan over its training rows: inner_folds folds, seed plan.seed + 101 +
    fold, grouped by each series' group_id when plan is group-aware; an
    inner_folds below 2 is then a UsageError, raised before any fold is fitted.
    Each FoldResult.config records the config the fold was fitted with.
    """
    if task not in ("regression", "classification"):
        raise UsageError(f"unknown task {task!r}")
    if metric is None:
        metric = "rmse" if task == "regression" else "accuracy"
    valid = {"regression": {"rmse"}, "classification": {"accuracy", "auc"}}
    if metric not in valid[task]:
        raise UsageError(f"metric {metric!r} is not valid for task {task!r}")
    stray = sorted(set(dataset.ids).symmetric_difference(plan.assignment))
    if stray:
        raise DataError(f"plan and dataset disagree on series ids: {stray[:3]}")
    labels = dict(zip(dataset.ids, _series_labels(dataset, task)))
    k_grid = list(k_grid or [config.K])
    w_grid = list(w_grid or [config.W])
    nested = len(set(k_grid)) > 1 or len(set(w_grid)) > 1
    if nested and inner_folds < 2:
        raise UsageError(f"a grid of more than one (K, W) point needs "
                         f"inner_folds of at least 2, got {inner_folds}")
    if task == "classification" and knn_k < 1:
        raise UsageError(f"k-NN needs knn_k of at least 1, got {knn_k}")
    if not nested:
        config = replace(config, K=k_grid[0], W=w_grid[0])
    folds: list[FoldResult] = []
    for fold in range(plan.k):
        train = Dataset(tuple(ts for ts in dataset
                              if plan.assignment[ts.id] != fold))
        test = Dataset(tuple(ts for ts in dataset
                             if plan.assignment[ts.id] == fold))
        if len(train) == 0 or len(test) == 0:
            raise DataError(f"fold {fold} leaves an empty train or test split")
        fold_config = config
        if nested:
            inner_groups = ([ts.group_id for ts in train]
                            if plan.group_aware else None)
            inner_plan = kfold_split(train.ids, inner_folds,
                                     seed=plan.seed + 101 + fold,
                                     group_ids=inner_groups)
            fold_config, _table = grid_search(
                train, k_grid, w_grid, inner_plan, task, config, metric=metric,
                knn_k=knn_k, ridge_lambda=ridge_lambda,
                positive_label=positive_label, centroids=centroids)
        model, train_matrix = fit_pipeline(train, fold_config,
                                           centroids=centroids)
        test_matrix = transform_dataset(model, test)
        y_train = [labels[sid] for sid in train.ids]
        y_test = [labels[sid] for sid in test.ids]
        value = score_split(train_matrix.values, y_train, test_matrix.values,
                            y_test, task, metric, knn_k=knn_k,
                            ridge_lambda=ridge_lambda,
                            positive_label=positive_label)
        identified, emitted = model.pattern_counts()
        folds.append(FoldResult(
            fold=fold, n_train=len(train), n_test=len(test), metric=metric,
            value=float(value), config=fold_config,
            n_features=len(train_matrix.names),
            n_patterns_identified=identified, n_patterns_emitted=emitted,
            model_fingerprint=fingerprint_model(model)))
    return CvResult(metric=metric, folds=folds)


@dataclass
class GridPoint:
    K: int
    W: int
    mean_value: float


def grid_search(dataset: Dataset, k_grid: Sequence[int], w_grid: Sequence[int],
                plan: CvPlan, task: str, base_config: PipelineConfig,
                metric: str | None = None, knn_k: int = 5,
                ridge_lambda: float = 1.0, positive_label: str | None = None,
                centroids: bool = False) -> tuple[PipelineConfig, list[GridPoint]]:
    """Exhaustive (K, W) search scored by cross-validation on the given plan.

    Regression minimizes rmse; classification maximizes accuracy/auc. Ties
    prefer the smaller K, then the smaller W (the grid is walked in ascending
    order and only strict improvements replace the incumbent).
    """
    if not k_grid or not w_grid:
        raise DataError("grid_search: empty grid")
    best_config: PipelineConfig | None = None
    best_score = -np.inf
    table: list[GridPoint] = []
    for K in sorted(set(int(k) for k in k_grid)):
        for W in sorted(set(int(w) for w in w_grid)):
            config = replace(base_config, K=K, W=W)
            result = cross_validate(dataset, config, plan, task, metric=metric,
                                    knn_k=knn_k, ridge_lambda=ridge_lambda,
                                    positive_label=positive_label,
                                    centroids=centroids)
            score = -result.mean if task == "regression" else result.mean
            table.append(GridPoint(K=K, W=W, mean_value=result.mean))
            if score > best_score:
                best_score = score
                best_config = config
    assert best_config is not None
    return best_config, table
