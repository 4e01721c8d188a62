"""Probability blending and simplex weight search.

The ensemble objective, micro-F1 of the argmax of the weighted
probability sum, is piecewise constant in the weights, so the search is
derivative-free coordinate ascent: every step size in the schedule is
tried as a mass transfer between every ordered model pair, the best
strictly-improving move of a sweep is taken, and sweeps repeat until no
move improves. Restarting from the uniform point and from every corner
makes the result at least as good as the mean blend and as every single
model, by construction rather than by luck.

The module scores blends with `skyglow.metrics` and imports no feature,
learner or validation code, so the `ensemble` stage loads none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import read_rows, write_rows
from .errors import DimensionError, ParameterError
from .metrics import micro_f1, predicted_classes
from .specs import DEFAULT_STEP_SCHEDULE

_MAX_SWEEPS = 200
WEIGHTS_HEADER = ("model_id", "weight")


def _stack(matrices: Sequence[np.ndarray]) -> np.ndarray:
    if len(matrices) == 0:
        raise ParameterError("need at least one probability matrix")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise DimensionError(
                f"probability matrices disagree in shape: {m.shape} vs {shape}")
    return np.stack([np.asarray(m, dtype=float) for m in matrices])


def _check_simplex(weights: np.ndarray) -> None:
    # NaN fails every comparison, so the sum-to-1 test alone lets it through
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ParameterError(
            f"weights must be finite and nonnegative, got {weights.tolist()!r}")
    if abs(float(weights.sum()) - 1.0) > 1e-9:
        raise ParameterError(f"weights must sum to 1, got {float(weights.sum())!r}")


def blend(matrices: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Weighted probability sum over models."""
    stacked = _stack(matrices)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(stacked),):
        raise DimensionError(
            f"{len(stacked)} matrices but {weights.shape} weights")
    _check_simplex(weights)
    return np.tensordot(weights, stacked, axes=1)


def mean_blend(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Uniform-weight blend; the baseline every optimized blend must beat."""
    # an empty list gets no weights and fails in blend's own check
    return blend(matrices, np.full(len(matrices), 1.0 / max(len(matrices), 1)))


def _micro_f1_of_blend(stacked: np.ndarray, weights: np.ndarray,
                       truth: np.ndarray) -> float:
    return micro_f1(predicted_classes(np.tensordot(weights, stacked, axes=1)), truth)


@dataclass(frozen=True)
class EnsembleWeights:
    model_ids: tuple[str, ...]
    weights: np.ndarray
    objective: float  # OOF micro-F1 achieved by these weights

    def __post_init__(self):
        if len(self.model_ids) != len(self.weights) or len(self.weights) < 1:
            raise ParameterError("one weight per model id required")
        _check_simplex(self.weights)

    def write_csv(self, dest: str | Path) -> None:
        write_rows(dest, WEIGHTS_HEADER,
                   zip(self.model_ids, self.weights.tolist()))


def read_weights_csv(source: str | Path) -> EnsembleWeights:
    """The weights of write_csv; the file holds no objective, so it reads
    back as 0.0."""
    _, rows = read_rows(source, WEIGHTS_HEADER,
                        lambda row: (row[0], float(row[1])))
    return EnsembleWeights(tuple(row[0] for row in rows),
                           np.array([row[1] for row in rows]), 0.0)


def _ascend(stacked: np.ndarray, truth: np.ndarray, start: np.ndarray,
            schedule: Sequence[float], rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Greedy sweeps of pairwise mass transfers from one start point."""
    n_models = len(stacked)
    weights = start.copy()
    current = _micro_f1_of_blend(stacked, weights, truth)
    for _ in range(_MAX_SWEEPS):
        best_move = None
        best_key = (current, -np.inf)  # (objective, tie perturbation)
        for step in schedule:
            for src in range(n_models):
                transfer = min(step, float(weights[src]))
                if transfer <= 0.0:
                    continue
                for dst in range(n_models):
                    if dst == src:
                        continue
                    candidate = weights.copy()
                    candidate[src] -= transfer
                    candidate[dst] += transfer
                    objective = _micro_f1_of_blend(stacked, candidate, truth)
                    if objective < best_key[0]:
                        continue
                    key = (objective, rng.random())
                    # strict improvement over the current point is required;
                    # among equally-improving moves the perturbation decides
                    if objective > current and key > best_key:
                        best_key = key
                        best_move = candidate
        if best_move is None:
            break
        weights = best_move
        current = best_key[0]
    return weights, current


def optimize_weights(matrices: Sequence[np.ndarray], truth: np.ndarray,
                     model_ids: Sequence[str] | None = None,
                     step_schedule: Sequence[float] = DEFAULT_STEP_SCHEDULE,
                     seed: int = 0) -> EnsembleWeights:
    """Coordinate ascent on OOF micro-F1 over the weight simplex.

    Restarts from the uniform point and from every corner; the best
    restart wins, ties going to the earlier one. The seed perturbs only
    exact objective ties between candidate moves.
    """
    stacked = _stack(matrices)
    truth = np.asarray(truth, dtype=np.int64)
    if truth.shape != (stacked.shape[1],):
        raise DimensionError(
            f"truth must have shape ({stacked.shape[1]},), got {truth.shape}")
    n_models = len(stacked)
    if model_ids is None:
        model_ids = tuple(f"model_{i}" for i in range(n_models))
    elif len(model_ids) != n_models:
        raise ParameterError("one model id per matrix required")
    for step in step_schedule:
        if not 0.0 < step <= 1.0:
            raise ParameterError(f"step sizes must be in (0, 1], got {step}")

    rng = np.random.default_rng(seed)
    starts = [np.full(n_models, 1.0 / n_models)]
    for corner in range(n_models):
        point = np.zeros(n_models)
        point[corner] = 1.0
        starts.append(point)

    best_weights, best_objective = None, -np.inf
    for start in starts:
        weights, objective = _ascend(stacked, truth, start, step_schedule, rng)
        if objective > best_objective:
            best_weights, best_objective = weights, objective
    return EnsembleWeights(tuple(model_ids), best_weights, best_objective)
