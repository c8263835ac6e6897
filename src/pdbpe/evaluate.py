"""Cross-validation harness: fold planning, simple predictors, metrics,
and nested (K, W) selection.

Each series is normalized (or whitened) once, against its own statistics
only, and PAA runs once per W of the grid; every fold and grid point shares
those streams, which are the same whichever fold holds the series.
Everything fitted on a set of series (bin edges, run-length medians,
vocabularies, pruning, centroids and the predictor) is refitted per fold on
its training rows only, so no state learned from held-out rows leaks
across the split.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import Dataset, PipelineConfig, require_group_ids
from .errors import DataError, NumericError, UsageError
from .model_io import fingerprint_model
from .pipeline import (FittedModel, _fit, _require_group_ids, _streams,
                       _transform)


@dataclass(frozen=True)
class CvPlan:
    """Fold assignment for every series id."""

    k: int
    seed: int
    assignment: dict[str, int]
    group_aware: bool = False


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
    keys = [str(key) for key in (group_ids if group_aware else ids)]
    units = list(dict.fromkeys(keys))
    if k > len(units):
        noun = "groups" if group_aware else "series"
        raise DataError(f"cannot deal {len(units)} {noun} into {k} folds")
    random.Random(seed).shuffle(units)
    fold = {unit: i % k for i, unit in enumerate(units)}
    assignment = {sid: fold[key] for sid, key in zip(ids, keys)}
    return CvPlan(k=k, seed=seed, assignment=assignment, group_aware=group_aware)


# ---------------------------------------------------------------------------
# Predictors

def ridge_fit_predict(train_X, y_train, test_X, lam: float) -> np.ndarray:
    """Fit least squares with an L2 penalty on standardized coefficients and
    predict test_X.

    Features are standardized with training statistics (a column whose
    standard deviation is below 1e-12 keeps scale 1) and the target is
    centered, so the intercept is unpenalized. A singular system at lam=0 is
    a hard error suggesting a positive lam.
    """
    if not lam >= 0:
        raise DataError("ridge: lam must be >= 0")
    X = np.asarray(train_X, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale < 1e-12] = 1.0
    Z = (X - mean) / scale
    y_mean = float(y.mean())
    gram = Z.T @ Z + lam * np.eye(Z.shape[1])
    try:
        # Cholesky doubles as the positive-definiteness check.
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NumericError("ridge system is singular at lam=0; "
                           "use a positive lam") from None
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, Z.T @ (y - y_mean)))
    test_Z = (np.asarray(test_X, dtype=np.float64) - mean) / scale
    return test_Z @ w + y_mean


_KNN_CELLS = 1 << 14


def _neighbours(train_X, test_X, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_test x k) indices and distances of the k nearest training rows of
    every test row, in neighbour order (Euclidean; ties keep row order).

    Only the exact distance decides: squares added left to right by cumsum
    (pairwise for a one-row train_X, as numpy sums a row). Blocks of about
    _KNN_CELLS cells (n to screen and k*f to recompute per query) screen it
    with approx = |q|^2 + |t|^2 - 2 q.t from einsum. With S = |q|^2 + |t|^2
    and u = eps/2, approx is within (2f + 3)u*S of the squared distance D,
    and the exact sum within (f + 2)u*D <= 2(f + 2)u*S, in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    The margin 8(f + 2)eps*(S + tiny) is over twice that, enough for
    underflow and for squares whose roots round alike. Rows whose approx -
    margin exceeds the query's k-th smallest approx + margin are dropped.
    """
    train_X = np.asarray(train_X, dtype=np.float64)
    n, f = train_X.shape
    if not 1 <= k <= n:
        raise DataError(f"k-NN: knn_k={k} outside [1, {n}]")
    if n == 1 or f == 0:
        d = np.sqrt(np.square(train_X[0] - test_X).sum(axis=1))
        return np.tile(np.arange(k), (len(d), 1)), np.tile(d[:, None], k)
    index = np.empty((len(test_X), k), dtype=np.intp)
    dist = np.empty(index.shape)
    sq_train = np.einsum("ij,ij->i", train_X, train_X)
    step = max(1, _KNN_CELLS // (n + k * f))
    slack = 8 * (f + 2) * np.finfo(np.float64).eps
    for lo in range(0, len(test_X), step):
        block = np.asarray(test_X[lo:lo + step], dtype=np.float64)
        size = np.einsum("ij,ij->i", block, block)[:, None] + sq_train
        approx = size - 2.0 * np.einsum("ij,kj->ik", block, train_X)
        margin = slack * (size + np.finfo(np.float64).tiny)
        upper = np.partition(approx + margin, k - 1, axis=1)[:, k - 1:k]
        query, row = np.nonzero(~(approx - margin > upper))
        sq = np.square(train_X[row] - block[query])
        d = np.sqrt(np.cumsum(sq, axis=1)[:, -1])
        # query ascends, and row within it, so ties keep training row order.
        take = np.lexsort((d, query))[np.searchsorted(
            query, np.arange(len(block)))[:, None] + np.arange(k)]
        index[lo:lo + step], dist[lo:lo + step] = row[take], d[take]
    return index, dist


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
    """One outer fold's score. model is the model the fold fitted; its
    fingerprint is computed only when model_fingerprint is read."""

    fold: int
    n_train: int
    n_test: int
    metric: str
    value: float
    config: PipelineConfig
    n_features: int
    n_patterns_identified: int
    n_patterns_emitted: int
    model: FittedModel = field(repr=False, compare=False)

    @property
    def model_fingerprint(self) -> str:
        return fingerprint_model(self.model)


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
            if not np.isfinite(labels[-1]):
                raise DataError(f"series {ts.id!r}: label {ts.label!r} is not "
                                "a finite number")
        else:
            labels.append(str(ts.label))
    return labels


def detect_task(dataset: Dataset) -> str:
    """"regression" when every series' label is one that regression
    accepts, a finite number, else "classification"."""
    try:
        _series_labels(dataset, "regression")
    except DataError:
        return "classification"
    return "regression"


def score_split(train_X, y_train, test_X, y_test, task: str, metric: str,
                knn_k: int = 5, ridge_lambda: float = 1.0,
                positive_label: str | None = None) -> float:
    """Train the task's predictor on one split and score the held-out rows.

    Regression scores ridge_fit_predict by rmse. For accuracy a row votes
    with its knn_k nearest training rows: most votes, then smallest mean
    distance (summed in neighbour order), then smallest label. For auc its
    score is the share of them carrying positive_label (default: the larger
    of exactly two labels).
    """
    if len(y_train) != len(train_X):
        raise DataError("score_split: y_train needs one label per train_X row")
    if np.shape(test_X)[-1] != np.shape(train_X)[-1]:
        raise DataError(f"score_split: test_X has {np.shape(test_X)[-1]} "
                        f"columns but train_X has {np.shape(train_X)[-1]}")
    if task == "regression":
        return rmse(y_test, ridge_fit_predict(train_X, y_train, test_X,
                                              ridge_lambda))
    index, dist = _neighbours(train_X, test_X, knn_k)
    if metric == "accuracy":
        classes = sorted(set(y_train))
        code = {lab: c for c, lab in enumerate(classes)}
        near = np.array([code[lab] for lab in y_train])[index]
        rows = np.arange(near.shape[0])
        votes = np.zeros((near.shape[0], len(classes)), dtype=np.intp)
        dist_sum = np.zeros(votes.shape)
        for j in range(knn_k):
            votes[rows, near[:, j]] += 1
            dist_sum[rows, near[:, j]] += dist[:, j]
        # lexsort is stable, so classes still tied stay in label order.
        ranked = np.lexsort((dist_sum / np.maximum(votes, 1), -votes), axis=1)
        return accuracy(y_test, [classes[c] for c in ranked[:, 0]])
    pos = positive_label
    if pos is None:
        classes = sorted(set(y_train) | set(y_test))
        if len(classes) != 2:
            raise DataError("auc needs exactly 2 classes")
        pos = classes[-1]
    hits = np.array([lab == pos for lab in y_train])[index].sum(axis=1)
    return auc_roc(np.array([lab == pos for lab in y_test]), hits / knn_k)


def _splits(dataset: Dataset, plan: CvPlan,
            rows: Sequence[int]) -> list[tuple[list[int], list[int]]]:
    """The (train, test) row indices into dataset of each fold of plan, a
    plan over the series at rows, in fold order."""
    fold_of = [plan.assignment[dataset.series[i].id] for i in rows]
    splits = []
    for fold in range(plan.k):
        train = [i for i, f in zip(rows, fold_of) if f != fold]
        test = [i for i, f in zip(rows, fold_of) if f == fold]
        if not train or not test:
            raise DataError(f"fold {fold} leaves an empty train or test split")
        splits.append((train, test))
    return splits


def cross_validate(dataset: Dataset, config: PipelineConfig, plan: CvPlan,
                   task: str, metric: str | None = None, knn_k: int = 5,
                   ridge_lambda: float = 1.0, positive_label: str | None = None,
                   centroids: bool = False, k_grid: Sequence[int] | None = None,
                   w_grid: Sequence[int] | None = None,
                   inner_folds: int = 3) -> CvResult:
    """Refit the pipeline per fold and score held-out series.

    task is "regression" (ridge, rmse) or "classification" (k-NN, accuracy
    or auc). Raised before any fold is fitted: a UsageError for another
    task, a metric the task cannot use, a knn_k below 1 for classification
    or a ridge_lambda that is not a finite number >= 0 for regression; a
    DataError for a (K, W) grid point that PipelineConfig rejects, a knn_k
    above the smallest training split of the plan or of an inner plan, an
    auc positive_label that no series carries or, with centroids, a series
    without a group id. Only then is each series normalized once, in
    dataset order, so a series that cannot be normalized is the first
    NumericError, and PAA runs once per W of the grid. The fitted state per
    fold depends only on that fold's training rows. Each FoldResult keeps
    its fold's model, and its model_fingerprint hashes that model when read,
    so tests can verify the separation and no fold is hashed unasked.

    k_grid and w_grid default to config's K and W. When they hold more than
    one (K, W) point, each fold is fitted with the point of best mean score
    on an inner plan over its training rows: inner_folds folds, seed
    plan.seed + 101 + fold, grouped by each series' group_id when plan is
    group-aware; an inner_folds below 2 is then a UsageError. Regression
    minimizes rmse, classification maximizes accuracy or auc, and ties go to
    the smaller K, then the smaller W.
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
    labels = _series_labels(dataset, task)
    k_grid = sorted(set(k_grid or [config.K]))
    w_grid = sorted(set(w_grid or [config.W]))
    nested = len(k_grid) * len(w_grid) > 1
    if nested and inner_folds < 2:
        raise UsageError(f"a grid of more than one (K, W) point needs "
                         f"inner_folds of at least 2, got {inner_folds}")
    if task == "classification" and knn_k < 1:
        raise UsageError(f"k-NN needs knn_k of at least 1, got {knn_k}")
    if task == "regression" and not 0 <= ridge_lambda < np.inf:
        raise UsageError(f"ridge regression needs ridge_lambda to be a finite "
                         f"number >= 0, got {ridge_lambda!r}")
    if metric == "auc" and positive_label not in (None, *labels):
        raise DataError(f"auc positive label {positive_label!r} is carried by "
                        f"no series")
    points = [replace(config, K=K, W=W) for K in k_grid for W in w_grid]
    series = dataset.series
    splits = _splits(dataset, plan, range(len(dataset)))
    inner_plans = [kfold_split([series[i].id for i in train], inner_folds,
                               seed=plan.seed + 101 + fold,
                               group_ids=[series[i].group_id for i in train]
                               if plan.group_aware else None)
                   for fold, (train, _test) in enumerate(splits) if nested]
    if task == "classification":
        for each in [plan, *inner_plans]:
            sizes = Counter(each.assignment.values()).values()
            smallest = len(each.assignment) - max(sizes)
            if knn_k > smallest:
                raise DataError(f"knn_k={knn_k} exceeds the smallest training "
                                f"split, {smallest} series")
    if centroids:
        _require_group_ids(dataset)
    # A stream depends on its own series only, so every fold and grid
    # point slices its rows from one computed over the whole dataset.
    streams = _streams(dataset, config.multivariate_mode, dataset.channels,
                       w_grid)

    def subset(rows: list[int], point: PipelineConfig):
        """The series at rows and their streams at point.W."""
        return (Dataset(tuple(series[i] for i in rows)),
                {ch: [stream[i] for i in rows]
                 for ch, stream in streams[point.W].items()})

    def fit_and_score(train: list[int], test: list[int],
                      point: PipelineConfig):
        train_set, train_streams = subset(train, point)
        model, train_matrix = _fit(train_set, point, centroids, train_streams)
        value = score_split(
            train_matrix.values, [labels[i] for i in train],
            _transform(model, *subset(test, point)).values,
            [labels[i] for i in test], task, metric, knn_k=knn_k,
            ridge_lambda=ridge_lambda, positive_label=positive_label)
        return float(value), model, len(train_matrix.names)

    folds: list[FoldResult] = []
    for fold, (train, test) in enumerate(splits):
        fold_config = points[0]
        if nested:
            inner_splits = _splits(dataset, inner_plans[fold], train)
            means = [float(np.mean([fit_and_score(*split, point)[0]
                                    for split in inner_splits]))
                     for point in points]
            best = min(means) if task == "regression" else max(means)
            fold_config = points[means.index(best)]
        value, model, n_features = fit_and_score(train, test, fold_config)
        identified, emitted = model.pattern_counts()
        folds.append(FoldResult(
            fold=fold, n_train=len(train), n_test=len(test), metric=metric,
            value=value, config=fold_config, n_features=n_features,
            n_patterns_identified=identified, n_patterns_emitted=emitted,
            model=model))
    return CvResult(metric=metric, folds=folds)
