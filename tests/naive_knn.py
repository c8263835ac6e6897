"""Reference k-NN: the per-query loop that evaluate._neighbours replaced.

Each query's distances add the squared differences column by column, left to
right, and take the square root; a stable argsort keeps training row order
among equal distances. For a train_X of two or more rows,
evaluate._neighbours must return exactly these indices and distance bytes.
"""

import numpy as np


def naive_neighbours(train_X, test_X, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_test x k) indices and distances of each test row's k nearest
    training rows, one query at a time."""
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    index = np.empty((len(test_X), k), dtype=np.intp)
    dist = np.empty(index.shape)
    for row, query in enumerate(test_X):
        acc = np.zeros(len(train_X))
        for j in range(train_X.shape[1]):
            acc += (train_X[:, j] - query[j]) ** 2
        d = np.sqrt(acc)
        index[row] = np.argsort(d, kind="stable")[:k]
        dist[row] = d[index[row]]
    return index, dist
