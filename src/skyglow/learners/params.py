"""Hyperparameters shared by both tree-ensemble learners."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError


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
        if self.l2_regularization <= 0.0:
            raise ParameterError(
                f"l2_regularization must be > 0, got {self.l2_regularization}")
        if self.max_bins > 256:
            raise ParameterError(f"max_bins must be <= 256, got {self.max_bins}")
