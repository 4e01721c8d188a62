"""Feature engineering: fitted pipelines, neighbor features, assembly."""

from .neighbors import cross_neighbor_means, neighbor_mean_features
from .pipeline import (
    CATEGORICAL_FEATURES,
    N_CLASSES,
    NUMERIC_FEATURES,
    FeatureConfig,
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
    "CATEGORICAL_FEATURES", "N_CLASSES", "NUMERIC_FEATURES",
    "FeatureConfig", "FeaturePipelineModel", "NeighborIndex",
    "apply_feature_pipeline", "bin_target", "build_neighbor_index",
    "fit_feature_pipeline", "neighbor_points", "target_classes",
    "neighbor_mean_features", "cross_neighbor_means",
]
