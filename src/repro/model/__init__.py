"""Cache-miss prediction models over reuse-distance histograms."""

from repro._lazy import lazy_exports

__all__ = [
    "BASIS", "LevelPrediction", "MachineConfig", "MemoryLevel",
    "PatternScaling", "Prediction", "QUANTILES", "ScalingModel",
    "SeriesModel", "expected_misses", "fa_misses", "fit_series",
    "miss_probability_at", "predict", "predict_from_db",
    "sa_miss_probability", "sa_misses",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("MachineConfig", "MemoryLevel"),
    "missmodel": ("expected_misses", "fa_misses", "miss_probability_at",
                  "sa_miss_probability", "sa_misses"),
    "predictor": ("LevelPrediction", "Prediction", "predict",
                  "predict_from_db"),
    "scaling": ("BASIS", "QUANTILES", "PatternScaling", "ScalingModel",
                "SeriesModel", "fit_series"),
})
