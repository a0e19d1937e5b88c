"""Retrieval and short-term forecasting of multi-level wind from dense
GNSS zenith-delay networks."""

__version__ = "0.1.0"

from .core import (
    COMPONENTS,
    LevelSpec,
    NormStats,
    SampleSet,
    StationTable,
    TimeAxis,
    WindCube,
    WindSeries,
    ZtdPanel,
)
from .errors import ConfigError, DataError, GwindcastError, NumericError
from .harness import DEFAULT_CONFIG, ExperimentConfig
from .metrics import evaluate_series, mae, pearson_r, rmse, rmspe
from .model import ModelConfig, WindModel, load_model, save_model
from .postprocess import apply_cdf_map, fit_cdf_map
from .preprocess import (
    SplitConfig,
    build_samples,
    compose_wind,
    decompose_wind,
    fill_gaps,
    height_to_pressure,
)
from .synthgen import SynthConfig, generate
from .trainer import TrainConfig, train

__all__ = [
    "__version__",
    "COMPONENTS",
    "ConfigError",
    "DataError",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "GwindcastError",
    "LevelSpec",
    "ModelConfig",
    "NormStats",
    "NumericError",
    "SampleSet",
    "SplitConfig",
    "StationTable",
    "SynthConfig",
    "TimeAxis",
    "TrainConfig",
    "WindCube",
    "WindModel",
    "WindSeries",
    "ZtdPanel",
    "apply_cdf_map",
    "build_samples",
    "compose_wind",
    "decompose_wind",
    "evaluate_series",
    "fill_gaps",
    "fit_cdf_map",
    "generate",
    "height_to_pressure",
    "load_model",
    "mae",
    "pearson_r",
    "rmse",
    "rmspe",
    "save_model",
    "train",
]
