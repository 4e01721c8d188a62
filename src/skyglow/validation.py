"""Stratified K-fold orchestration and out-of-fold predictions.

The CV protocol, on the rows that have a target (`folds.labelled_folds`):
per fold, every fit (feature pipeline, text models, neighbor features,
learner) receives the k-1 training folds and nothing else, and the
held-out fold reaches the fold's stack through `apply_stack`, the path
`predict` takes, and is predicted by the fold's model, so OOF coverage is
total. One exception remains: GBDT early-stops on the held-out fold
itself, so the round count each fold keeps is chosen on the rows it then
scores, and the OOF metrics of a GBDT that stopped early lean optimistic.
An inner split of each fold's training rows would remove that bias.

The micro-F1 metric family lives in `skyglow.metrics`, which fits
nothing, and the fold dealing in `skyglow.folds`, which imports no learner;
this module imports the names it calls from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dataset import ObservationTable
from .errors import ParameterError
from .features import N_CLASSES, target_classes
from .features.stack import StackModel, apply_stack, fit_stack
from .folds import labelled_folds
from .learners import (
    ForestModel,
    GbdtModel,
    fit_forest,
    fit_gbdt,
    predict_proba_forest,
    predict_proba_gbdt,
)
from .metrics import (
    MetricsReport,
    classification_metrics,
    micro_f1,
    predicted_classes,
)
from .specs import FeatureConfig, LearnerSpec


@dataclass(frozen=True)
class ModelOof:
    model_id: str
    probabilities: np.ndarray   # (n_rows, n_classes), OOF
    metrics: MetricsReport
    diagnostics: tuple[str, ...]
    rounds: tuple[int, ...] = ()  # GBDT: rounds each fold's model kept


@dataclass(frozen=True)
class CvResult:
    row_ids: tuple[str, ...]
    truth: np.ndarray
    folds: np.ndarray
    k: int
    models: tuple[ModelOof, ...]
    warnings: tuple[str, ...]  # from the fold assignment


def fit_models(table: ObservationTable, targets: np.ndarray,
               folds: np.ndarray, feature_config: FeatureConfig,
               specs: Sequence[LearnerSpec], seed: int,
               held_out_rows: tuple[ObservationTable, np.ndarray] | None = None,
               ) -> Iterator[tuple[LearnerSpec, StackModel, np.ndarray | None,
                                   GbdtModel | ForestModel]]:
    """Fit the roster on every row of `table`, each of which has a target:
    each distinct feature stack once, when its first spec comes up, and
    each spec's learner on its stack's matrix. `held_out_rows`, a table
    and its targets, are rows the fits do not see: each distinct stack is
    applied to them once, and GBDT early-stops on them; forests never do.

    Yields (spec, stack, X, model) in roster order, where X is the stack's
    feature matrix of the held-out rows, None when none are given.
    """
    stacks = {}
    y = targets.astype(np.int64)
    for spec in specs:
        if spec.stack not in stacks:
            stack, X_train = fit_stack(table, targets, folds, feature_config,
                                       spec.stack, seed)
            X = (None if held_out_rows is None
                 else apply_stack(stack, held_out_rows[0]))
            stacks[spec.stack] = stack, X_train, X
        stack, X_train, X = stacks[spec.stack]
        if spec.kind == "gbdt":
            validation = None if X is None else (
                X, held_out_rows[1].astype(np.int64))
            model = fit_gbdt(X_train, y, spec.params,
                             validation=validation, n_classes=N_CLASSES,
                             feature_names=stack.columns)
        else:
            model = fit_forest(X_train, y, spec.params,
                               n_classes=N_CLASSES, feature_names=stack.columns)
        yield spec, stack, X, model


def predict_proba(model: GbdtModel | ForestModel, X) -> np.ndarray:
    """Class probabilities from a fitted learner of either kind."""
    if isinstance(model, GbdtModel):
        return predict_proba_gbdt(model, X)
    return predict_proba_forest(model, X)


def run_cv(table: ObservationTable, feature_config: FeatureConfig,
           specs: Sequence[LearnerSpec], k: int = 5, seed: int = 0,
           stratified: bool = True) -> CvResult:
    """Cross-validate every learner spec with full OOF coverage.

    Rows without a target are excluded up front. Each fold fits the roster
    through `fit_models` on the fold's training rows, so specs sharing a
    feature stack configuration share the fold's fitted stack, and scores
    the held-out rows on the features each stack gives them, on which GBDT
    models also early-stop. Each GBDT model's `rounds` holds the number of
    rounds its model kept in each fold, in fold order.
    """
    if not specs:
        raise ParameterError("need at least one learner spec")
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"duplicate model ids: {ids}")

    cv_table, targets, assignment = labelled_folds(
        table, target_classes(table), k, seed, stratified)
    y = targets.astype(np.int64)
    folds = assignment.folds

    n = len(y)
    oof = {spec.model_id: np.zeros((n, N_CLASSES)) for spec in specs}
    diagnostics: dict[str, list[str]] = {spec.model_id: [] for spec in specs}
    rounds: dict[str, list[int]] = {spec.model_id: [] for spec in specs}

    for fold in range(k):
        held = folds == fold
        train = ~held
        for spec, _, X, model in fit_models(
                cv_table.subset(train), targets[train], folds[train],
                feature_config, specs, seed * 1000 + fold,
                (cv_table.subset(held), targets[held])):
            oof[spec.model_id][held] = predict_proba(model, X)
            diagnostics[spec.model_id].extend(
                f"fold {fold}: {d}" for d in model.diagnostics)
            if isinstance(model, GbdtModel):
                rounds[spec.model_id].append(len(model.trees))

    models = []
    for spec in specs:
        probs = oof[spec.model_id]
        pred = predicted_classes(probs)
        per_fold = tuple(micro_f1(pred[folds == f], y[folds == f])
                         for f in range(k))
        metrics = classification_metrics(pred, y, n_classes=N_CLASSES,
                                         per_fold_f1=per_fold)
        models.append(ModelOof(spec.model_id, probs, metrics,
                               tuple(diagnostics[spec.model_id]),
                               tuple(rounds[spec.model_id])))
    return CvResult(cv_table.ids, y, folds, k, tuple(models),
                    assignment.warnings)
