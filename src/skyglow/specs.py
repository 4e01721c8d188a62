"""The plain-data settings a run is built from: the number of target
classes, learner hyperparameters, the feature options, each model's stack
and roster entry, the synthetic table's shape and the ensemble's step
schedule.

They are defined here, apart from the code that uses them, so that
reading a run configuration imports no numpy: the CLI's `ingest` and
`report` stages run on this module, `dataset` and `cli.svg` alone. Each
type is also importable from the module that uses it
(`learners.params`, `features.pipeline`, `features.stack`, `validation`,
`synth`, `ensemble`, `textfeat`), and is the same object there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParameterError

# Target classes: a limiting magnitude is binned to a class in [0, 7].
N_CLASSES = 8

# TF-IDF vocabulary cap and truncated-SVD rank of a stack's text block.
DEFAULT_VOCAB_CAP = 20000
DEFAULT_SVD_RANK = 32

# Coordinate-ascent step sizes of the ensemble weight search, in order.
DEFAULT_STEP_SCHEDULE = (0.5, 0.25, 0.1, 0.05, 0.01)


@dataclass(frozen=True)
class LearnerParams:
    """Defaults sized for the full pipeline; tests shrink them for speed.

    `n_rounds`, `learning_rate`, `max_leaves`, `min_samples_leaf`,
    `max_bins`, and `l2_regularization` drive the boosted trees;
    `n_trees` drives the forest; `early_stopping_patience` applies only
    when a validation split is supplied to fit_gbdt. In the CLI, that is
    `cv`, which early-stops each fold's GBDT on the held-out fold; `train`
    has no validation rows and boosts the upper median of the round counts
    the fold models kept (`cv_rounds.csv`), so `n_rounds` caps it.
    """

    n_rounds: int = 300
    learning_rate: float = 0.05
    max_leaves: int = 31
    min_samples_leaf: int = 20
    max_bins: int = 256
    l2_regularization: float = 1.0
    n_trees: int = 300
    early_stopping_patience: int = 30
    seed: int = 0

    def __post_init__(self):
        # n_rounds = 0 is legal: the model is then the class-prior baseline.
        if self.n_rounds < 0:
            raise ParameterError(f"n_rounds must be >= 0, got {self.n_rounds}")
        for name in ("max_leaves", "min_samples_leaf", "max_bins",
                     "n_trees", "early_stopping_patience"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ParameterError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 < self.l2_regularization < math.inf:
            raise ParameterError(f"l2_regularization must be finite and > 0, "
                                 f"got {self.l2_regularization}")
        if self.max_bins > 256:
            raise ParameterError(f"max_bins must be <= 256, got {self.max_bins}")


@dataclass(frozen=True)
class FeatureConfig:
    quantile_low: float = 0.01
    quantile_high: float = 0.99
    knn_k: int = 10
    indicator_threshold: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.quantile_low <= self.quantile_high <= 1.0:
            raise ParameterError(
                f"quantile levels must satisfy 0 <= low <= high <= 1, got "
                f"({self.quantile_low}, {self.quantile_high})")
        if self.knn_k < 1:
            raise ParameterError(f"knn_k must be >= 1, got {self.knn_k}")
        if not 0.0 <= self.indicator_threshold <= 1.0:
            raise ParameterError(
                f"indicator_threshold must be in [0, 1], got "
                f"{self.indicator_threshold}")


@dataclass(frozen=True)
class StackSpec:
    """Which optional feature blocks a model's stack includes."""

    use_text: bool = True
    use_neighbor: bool = True
    vocab_cap: int = DEFAULT_VOCAB_CAP
    svd_rank: int = DEFAULT_SVD_RANK

    def __post_init__(self):
        for name in ("vocab_cap", "svd_rank"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class LearnerSpec:
    """One model in the comparison: learner kind + params + feature stack."""

    model_id: str
    kind: str  # "gbdt" | "forest"
    params: LearnerParams
    stack: StackSpec = StackSpec()

    def __post_init__(self):
        if self.kind not in ("gbdt", "forest"):
            raise ParameterError(f"unknown learner kind: {self.kind!r}")
        # the id names files: oof_<id>.csv, stack_<id>.json, model_<id>.json
        if not re.fullmatch(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*", self.model_id):
            raise ParameterError(
                "model_id must be letters, digits, '_', '-' and '.', not "
                f"starting with '.', got {self.model_id!r}")


@dataclass(frozen=True)
class SynthConfig:
    n_rows: int = 2000
    seed: int = 0
    # missingness fractions
    missing_sensor_reading: float = 0.828
    missing_comment_1: float = 0.429
    missing_comment_2: float = 0.480
    missing_constellation: float = 0.121
    missing_target: float = 0.080
    # dominant-category shares (within present values)
    share_type_gan: float = 0.801
    share_clouds_clear: float = 0.594
    share_constellation_orion: float = 0.410
    share_evening: float = 0.827

    def __post_init__(self):
        if self.n_rows < 8:
            raise ParameterError(f"n_rows must be >= 8, got {self.n_rows}")
        for name in ("missing_sensor_reading", "missing_comment_1",
                     "missing_comment_2", "missing_constellation",
                     "missing_target", "share_type_gan", "share_clouds_clear",
                     "share_constellation_orion", "share_evening"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
