"""Feature engineering: fitted pipelines, neighbor features, assembly."""

from .neighbors import cross_neighbor_means, neighbor_mean_features
from .pipeline import (
    DEFAULT_CATEGORICAL_FEATURES,
    DEFAULT_NUMERIC_FEATURES,
    N_CLASSES,
    FeatureConfig,
    FeatureMatrix,
    FeaturePipelineModel,
    NeighborIndex,
    apply_feature_pipeline,
    bin_target,
    build_neighbor_index,
    fit_feature_pipeline,
    neighbor_points,
    target_classes,
)

__all__ = [
    "DEFAULT_CATEGORICAL_FEATURES", "DEFAULT_NUMERIC_FEATURES", "N_CLASSES",
    "FeatureConfig", "FeatureMatrix", "FeaturePipelineModel", "NeighborIndex",
    "apply_feature_pipeline", "bin_target", "build_neighbor_index",
    "fit_feature_pipeline", "neighbor_points", "target_classes",
    "neighbor_mean_features", "cross_neighbor_means",
]
