"""Assembly of the full per-model feature stack: pipeline output plus
text-SVD blocks plus the neighbor-mean target feature, as one float array.
Its column names are kept once, on the fitted `StackModel.columns`.

One stack is fitted per (text, neighbor) configuration on the rows it is
given, which are its training rows; every other row, a held-out fold's
or a new observation's, goes through `apply_stack`, which is pure. The
neighbor-mean target feature is computed out-of-fold during fitting (a
row's feature never sees its own fold's targets) and against the stored
training reference when applied, the usual target-encoding asymmetry;
both go through the one kernel `cross_neighbor_means`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import COMMENT_FIELDS, ObservationTable
from ..errors import ParameterError
from ..specs import FeatureConfig, StackSpec
from ..textfeat import TextFeatureModel, fit_text_features, transform_text_features
from .neighbors import cross_neighbor_means, neighbor_mean_features
from .pipeline import (
    FeaturePipelineModel,
    apply_feature_pipeline,
    build_neighbor_index,
    fit_feature_pipeline,
    neighbor_points,
)

NEIGHBOR_FEATURES = ("neighbor_target_mean", "neighbor_count")


@dataclass(frozen=True)
class NeighborReference:
    """Training-side data needed to reproduce neighbor features later."""

    points: np.ndarray   # (m, 4) standardized coordinates of training rows
    values: np.ndarray   # (m,) target classes of those rows
    k: int
    fallback: float      # mean target over every training row


@dataclass(frozen=True)
class StackModel:
    spec: StackSpec
    pipeline: FeaturePipelineModel
    text_models: tuple[tuple[str, TextFeatureModel], ...]
    neighbor: NeighborReference | None
    columns: tuple[str, ...]


def _text_seed(seed: int, column_position: int) -> int:
    state = np.random.SeedSequence([seed, column_position]).generate_state(1)
    return int(state[0])


def _assemble(pipeline: FeaturePipelineModel, table: ObservationTable,
              text_blocks: list[tuple[str, np.ndarray]],
              neighbor: tuple[np.ndarray, np.ndarray] | None,
              ) -> tuple[tuple[str, ...], np.ndarray]:
    """The stack's column names and its matrix for `table`: one hstack of
    the pipeline output, each comment column's SVD block (which may have
    no columns) and the neighbor (means, counts)."""
    columns = list(pipeline.output_columns)
    blocks = [apply_feature_pipeline(pipeline, table)]
    for column, block in text_blocks:
        columns.extend(f"{column}_svd_{i:02d}" for i in range(block.shape[1]))
        blocks.append(block)
    if neighbor is not None:
        means, counts = neighbor
        columns.extend(NEIGHBOR_FEATURES)
        blocks.extend([means[:, None], counts[:, None]])
    return tuple(columns), np.hstack(blocks)


def fit_stack(table: ObservationTable, targets: np.ndarray,
              fold_labels: np.ndarray, feature_config: FeatureConfig,
              spec: StackSpec, seed: int) -> tuple[StackModel, np.ndarray]:
    """Fit each block `spec` includes, sized by `feature_config`, on every
    row of `table`, each of which must have a target; return the fitted
    stack and the feature matrix of `table`, whose columns are
    `stack.columns`.

    `fold_labels` deal the rows' out-of-fold neighbor means; the neighbor
    pool and reference are the located rows of `table`.
    """
    if np.isnan(targets).any():
        raise ParameterError("every training row must have a target")

    pipeline = fit_feature_pipeline(table, feature_config)
    text_models, text_blocks = [], []
    for pos, column in enumerate(COMMENT_FIELDS if spec.use_text else ()):
        model, block = fit_text_features(
            table.view.tokens[column], cap=feature_config.vocab_cap,
            rank=feature_config.svd_rank, seed=_text_seed(seed, pos))
        text_models.append((column, model))
        text_blocks.append((column, block))

    neighbor = neighbor_ref = None
    if spec.use_neighbor:
        index = build_neighbor_index(table, pipeline, fold_labels)
        neighbor = neighbor_mean_features(index, targets, feature_config.knn_k)
        # the applied rows' fallback: every training target, located or not
        neighbor_ref = NeighborReference(
            points=index.points, values=targets[index.table_rows],
            k=feature_config.knn_k, fallback=float(targets.mean()))

    columns, matrix = _assemble(pipeline, table, text_blocks, neighbor)
    stack = StackModel(spec, pipeline, tuple(text_models), neighbor_ref,
                       columns)
    return stack, matrix


def apply_stack(stack: StackModel, table: ObservationTable) -> np.ndarray:
    """Features for unseen rows: pipeline transform, text projection, and
    neighbor means against the stored training reference. The columns are
    `stack.columns`; a stack whose blocks rebuild other names is rejected."""
    text_blocks = [(column, transform_text_features(
        model, table.view.tokens[column])) for column, model in stack.text_models]
    neighbor = None
    ref = stack.neighbor
    if ref is not None:
        means = np.full(len(table), ref.fallback)
        counts = np.zeros(len(table), dtype=np.int64)
        points, usable_rows = neighbor_points(table, stack.pipeline)
        means[usable_rows], counts[usable_rows] = cross_neighbor_means(
            ref.points, ref.values, points, ref.k, ref.fallback)
        neighbor = (means, counts)
    columns, matrix = _assemble(stack.pipeline, table, text_blocks, neighbor)
    if columns != stack.columns:
        raise ParameterError("applied stack columns diverge from the fitted stack")
    return matrix
