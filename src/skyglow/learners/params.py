"""Hyperparameters shared by both tree-ensemble learners. `LearnerParams`
is defined in `skyglow.specs`, which imports no numpy, so the CLI can
read a run configuration without loading the learners."""

from ..specs import LearnerParams

__all__ = ["LearnerParams"]
