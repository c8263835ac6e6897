"""Pattern-vocabulary features for time series.

Learns a vocabulary of variable-length symbolic patterns from a training
corpus (piecewise-average smoothing, equal-width discretization with outlier
fencing, series variations, pair merging) and turns any series into a
fixed-width vector of normalized pattern counts.

The names below are the documented library API (see "Library API" in the
README); everything else is imported from its submodule.
"""

from .core import Dataset, PipelineConfig, TimeSeries
from .errors import DataError, NumericError, PdbpeError, UsageError
from .evaluate import cross_validate
from .model_io import load_model, save_model
from .pipeline import fit_pipeline, transform_dataset

__version__ = "0.1.0"

__all__ = [
    "Dataset", "TimeSeries", "PipelineConfig", "fit_pipeline",
    "transform_dataset", "cross_validate", "save_model", "load_model",
    "PdbpeError", "DataError", "UsageError", "NumericError",
]
