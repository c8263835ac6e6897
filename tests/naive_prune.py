"""Reference pruning: the per-column loop that prune_correlated replaced.

Each column is compared with all kept columns by one matrix-vector product.
features.prune_correlated must keep exactly the columns this keeps.
"""

import numpy as np

from pdbpe import DataError


def naive_prune_correlated(values: np.ndarray, threshold: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Greedy keep-first pruning of highly correlated columns.

    Walking columns in canonical order, a column is dropped when its absolute
    Pearson correlation with any already-kept column exceeds the threshold.
    Expects zero-variance columns to be removed beforehand.
    """
    values = np.asarray(values, dtype=np.float64)
    n, f = values.shape
    centered = values - values.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    if np.any(norms == 0.0):
        raise DataError("prune_correlated requires zero-variance columns to be "
                        "removed first")
    unit = centered / norms
    kept_idx: list[int] = []
    kept = np.zeros(f, dtype=bool)
    for j in range(f):
        if kept_idx:
            corrs = unit[:, kept_idx].T @ unit[:, j]
            if np.max(np.abs(corrs)) > threshold:
                continue
        kept_idx.append(j)
        kept[j] = True
    return values[:, kept], kept
