"""Pattern-vocabulary features for time series.

Learns a vocabulary of variable-length symbolic patterns from a training
corpus (piecewise-average smoothing, equal-width discretization with outlier
fencing, series variations, pair merging) and turns any series into a
fixed-width vector of normalized pattern counts.
"""

from .bpe import (MergeRule, Vocabulary, decode_pattern, encode, encode_corpus,
                  fit_bpe)
from .core import (ALL_VARIATIONS, Dataset, MultivariateMode, PipelineConfig,
                   TimeSeries, Variation, ingest_filter, parse_multivariate_mode,
                   parse_variation)
from .discretize import Discretizer, apply_discretizer, fit_discretizer
from .errors import DataError, NumericError, PdbpeError
from .evaluate import (CvPlan, CvResult, FoldResult, GridPoint, accuracy,
                       auc_roc, cross_validate, grid_search, kfold_split,
                       knn_predict, ridge_fit, ridge_predict, rmse,
                       score_split)
from .features import (FeatureDescriptor, FeatureMatrix, FeatureSchema,
                       anova_f_rank, centroid_augment, drop_zero_variance,
                       prune_correlated)
from .model_io import fingerprint_model, load_model, save_model
from .pipeline import (FittedModel, fit_pipeline, pattern_spans,
                       transform_dataset, variation_sequence)
from .preprocess import (WhiteningStats, collapse_series, fit_whitening, paa,
                         whiten_multivariate, zscore_normalize)
from .variations import (RcsmMedians, apply_autoregressive, apply_rcs,
                         apply_rcsm, fit_rcsm_medians, offset_decode,
                         offset_encode, run_lengths)

__version__ = "0.1.0"

__all__ = [
    "ALL_VARIATIONS", "CvPlan", "CvResult", "DataError", "Dataset",
    "Discretizer", "FeatureDescriptor", "FeatureMatrix", "FeatureSchema",
    "FittedModel", "FoldResult", "GridPoint", "MergeRule", "MultivariateMode",
    "NumericError", "PdbpeError", "PipelineConfig", "RcsmMedians",
    "TimeSeries", "Variation", "Vocabulary", "accuracy",
    "anova_f_rank", "apply_autoregressive", "apply_discretizer", "apply_rcs",
    "apply_rcsm", "auc_roc", "centroid_augment", "collapse_series",
    "cross_validate", "decode_pattern", "drop_zero_variance", "encode",
    "encode_corpus",
    "fingerprint_model", "fit_bpe", "fit_discretizer", "fit_pipeline",
    "fit_rcsm_medians", "fit_whitening", "grid_search", "ingest_filter",
    "kfold_split", "knn_predict", "load_model", "offset_decode",
    "offset_encode", "paa", "parse_multivariate_mode", "parse_variation",
    "pattern_spans", "prune_correlated", "ridge_fit", "ridge_predict", "rmse",
    "run_lengths", "save_model", "score_split", "transform_dataset",
    "variation_sequence", "whiten_multivariate", "zscore_normalize",
    "WhiteningStats",
]
