"""The eight workflow commands plus the synthetic-data generator, wired
over the library modules. Every command reads its inputs from files, writes
its artifacts into the output directory, and is byte-for-byte idempotent
for a fixed config and seed. Diagnostics go to stderr only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

from ..dataset import (
    ObservationTable,
    category_distribution,
    csv_reader,
    csv_writer,
    join_population,
    missingness_report,
    parse_observations,
    parse_population,
    parsed_rows,
    read_population_long,
    write_observations,
    write_population,
)
from ..ensemble import blend, mean_blend, optimize_weights, read_weights_csv
from ..errors import (
    DependencyError,
    EmptyInputError,
    LockError,
    SchemaError,
    SkyglowError,
    UndefinedCorrelationError,
)
from ..features import N_CLASSES, target_classes
from ..features.pipeline import derived_numeric_columns
from ..features.stack import StackSpec, apply_stack, fit_stack
from ..serialize import (
    learner_from_obj,
    learner_to_obj,
    load_json,
    save_json,
    stack_from_obj,
    stack_to_obj,
)
from ..synth import write_synthetic_dataset
from ..validation import (
    annual_trend,
    fit_models,
    fold_labels,
    micro_f1,
    pearson,
    predict_proba,
    predicted_classes,
    run_cv,
    write_oof_csv,
    read_oof_csv,
)
# bench/tracing.py patches these names here, so they stay importable
from ..learners import fit_forest, fit_gbdt, predict_proba_forest  # noqa: F401
from .config import RunConfig, load_config, render_config
from .svg import bar_chart_svg, line_chart_svg, write_svg

CLEAN_OBSERVATIONS = "observations_clean.csv"
POPULATION_LONG = "population_long.csv"
INGEST_DIAGNOSTICS = "ingest_diagnostics.csv"
MISSINGNESS = "missingness.csv"
CORRELATIONS = "correlations.csv"
FEATURES_CSV = "features.csv"
FEATURES_SIDECAR = "features_stack.json"
CV_SUMMARY = "cv_summary.csv"
CV_TRUTH = "cv_truth.csv"
TRAIN_MANIFEST = "train_manifest.json"
WEIGHTS = "weights.csv"
ENSEMBLE_METRICS = "ensemble_metrics.csv"
ENSEMBLE_OOF = "ensemble_oof.csv"
PREDICTIONS = "predictions.csv"
MODEL_COMPARISON = "model_comparison.csv"
LOCK_FILE = ".skyglow.lock"
CONFIG_ECHO = "config_echo.ini"

CORRELATION_FIELDS = ("time_zone", "latitude", "longitude", "elevation_m",
                      "sensor_reading", "population", "year", "month",
                      "day_of_year", "seconds_of_day")


def _category_csv(field: str) -> str:
    return f"category_{field}.csv"


def _trend_csv(field: str) -> str:
    return f"trend_{field}.csv"


def _oof_csv(model_id: str) -> str:
    return f"oof_{model_id}.csv"


def _metrics_csv(model_id: str) -> str:
    return f"metrics_{model_id}.csv"


def _confusion_csv(model_id: str) -> str:
    return f"confusion_{model_id}.csv"


def _stack_json(model_id: str) -> str:
    return f"stack_{model_id}.json"


def _model_json(model_id: str) -> str:
    return f"model_{model_id}.json"


def _require(out_dir: Path, *names: str) -> None:
    for name in names:
        if not (out_dir / name).exists():
            raise DependencyError(
                f"missing prerequisite artifact: {out_dir / name} "
                f"(run the producing command first)")


def _note(message: str) -> None:
    print(f"skyglow: {message}", file=sys.stderr)


def _load_clean_table(config: RunConfig) -> ObservationTable:
    out = config.output_dir
    _require(out, CLEAN_OBSERVATIONS, POPULATION_LONG)
    table, _ = parse_observations(out / CLEAN_OBSERVATIONS, "strict")
    population = read_population_long(out / POPULATION_LONG)
    return join_population(table, population)


def cmd_synth(config: RunConfig) -> None:
    config.observations_path.parent.mkdir(parents=True, exist_ok=True)
    config.population_path.parent.mkdir(parents=True, exist_ok=True)
    table = write_synthetic_dataset(config.observations_path,
                                    config.population_path, config.synth)
    _note(f"wrote {len(table)} synthetic observations to "
          f"{config.observations_path} and census to {config.population_path}")


def cmd_ingest(config: RunConfig) -> None:
    table, diagnostics = parse_observations(config.observations_path,
                                            config.strictness)
    if len(table) == 0:
        raise EmptyInputError(
            f"no valid observation rows in {config.observations_path}")
    population = parse_population(config.population_path)
    out = config.output_dir
    write_observations(table, out / CLEAN_OBSERVATIONS)
    write_population(population, out / POPULATION_LONG)
    with csv_writer(out / INGEST_DIAGNOSTICS) as writer:
        writer.writerow(["line", "row_id", "message"])
        for diag in diagnostics:
            writer.writerow([diag.line, diag.row_id, diag.message])
    _note(f"ingested {len(table)} rows ({len(diagnostics)} dropped), "
          f"{len(population)} population records")


def cmd_eda(config: RunConfig) -> None:
    table = _load_clean_table(config)
    out = config.output_dir
    missingness_report(table).write_csv(out / MISSINGNESS)
    for field in config.category_fields:
        category_distribution(table, field).write_csv(out / _category_csv(field))

    target = table.numeric_column("limiting_magnitude")
    numeric = derived_numeric_columns(table)
    with csv_writer(out / CORRELATIONS) as writer:
        writer.writerow(["field", "pearson_with_target", "complete_pairs", "note"])
        for field in CORRELATION_FIELDS:
            column = numeric[field]
            pairs = int((~(np.isnan(column) | np.isnan(target))).sum())
            try:
                writer.writerow([field, repr(pearson(column, target)), pairs, ""])
            except UndefinedCorrelationError as exc:
                writer.writerow([field, "", pairs, str(exc)])
    for field in config.trend_fields:
        annual_trend(table, field).write_csv(out / _trend_csv(field))
    _note(f"eda reports written for {len(table)} rows")


def cmd_features(config: RunConfig) -> None:
    table = _load_clean_table(config)
    out = config.output_dir
    targets = target_classes(table)
    labels = fold_labels(targets, config.cv_k, config.seed, config.stratified)
    spec = StackSpec(use_text=True, use_neighbor=True,
                     vocab_cap=config.vocab_cap, svd_rank=config.svd_rank)
    stack, matrix = fit_stack(table, targets, np.ones(len(table), dtype=bool),
                              labels, config.feature_config, spec, config.seed)
    with csv_writer(out / FEATURES_CSV) as writer:
        writer.writerow(["row_id"] + list(matrix.columns))
        for i, row_id in enumerate(matrix.row_ids):
            writer.writerow([row_id] + [repr(float(v)) for v in matrix.values[i]])
    save_json(out / FEATURES_SIDECAR, stack_to_obj(stack))
    _note(f"feature matrix {matrix.values.shape[0]}x{matrix.values.shape[1]} written")


def cmd_cv(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, FEATURES_CSV)
    table = _load_clean_table(config)
    result = run_cv(table, config.feature_config, config.specs,
                    k=config.cv_k, seed=config.seed,
                    stratified=config.stratified)

    with csv_writer(out / CV_TRUTH) as writer:
        writer.writerow(["row_id", "fold", "true_class"])
        for i, row_id in enumerate(result.row_ids):
            writer.writerow([row_id, int(result.folds[i]), int(result.truth[i])])

    summary_rows = []
    for model in result.models:
        write_oof_csv(out / _oof_csv(model.model_id), result.row_ids,
                      result.folds, model.model_id, model.probabilities)
        model.metrics.write_csv(out / _metrics_csv(model.model_id))
        model.metrics.write_confusion_csv(out / _confusion_csv(model.model_id))
        summary_rows.append([model.model_id, repr(model.metrics.micro_f1)]
                            + [repr(f) for f in model.metrics.per_fold_f1])
        for diag in model.diagnostics:
            _note(f"{model.model_id}: {diag}")
        _note(f"{model.model_id}: OOF micro-F1 {model.metrics.micro_f1:.4f}")
    with csv_writer(out / CV_SUMMARY) as writer:
        writer.writerow(["model_id", "micro_f1"]
                        + [f"fold_{f}" for f in range(result.k)])
        writer.writerows(summary_rows)


def cmd_train(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, FEATURES_CSV)
    table = _load_clean_table(config)
    targets = target_classes(table)
    keep = ~np.isnan(targets)
    if not keep.any():
        raise EmptyInputError("no rows with a target to train on")
    labels = fold_labels(targets, config.cv_k, config.seed, config.stratified)

    manifest = {"model_ids": list(config.model_ids), "n_classes": N_CLASSES}
    for spec, stack, _, model in fit_models(
            table, targets, keep, labels, config.feature_config, config.specs,
            config.seed):
        save_json(out / _stack_json(spec.model_id), stack_to_obj(stack))
        save_json(out / _model_json(spec.model_id), learner_to_obj(model))
        _note(f"trained {spec.model_id} on {int(keep.sum())} rows, "
              f"{len(stack.columns)} features")
    save_json(out / TRAIN_MANIFEST, manifest)


def _read_cv_truth(out: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    path = out / CV_TRUTH
    with csv_reader(path) as reader:
        if next(reader, None) != ["row_id", "fold", "true_class"]:
            raise SchemaError("bad cv truth file header")
        rows = parsed_rows(path, reader, 3,
                           lambda row: (row[0], int(row[1]), int(row[2])))
    return ([row[0] for row in rows],
            np.array([row[1] for row in rows], dtype=np.int64),
            np.array([row[2] for row in rows], dtype=np.int64))


def cmd_ensemble(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, CV_TRUTH, *[_oof_csv(mid) for mid in config.model_ids])
    ids, folds, truth = _read_cv_truth(out)
    matrices = []
    for model_id in config.model_ids:
        row_ids, _, file_model_id, probs = read_oof_csv(out / _oof_csv(model_id))
        if file_model_id != model_id or list(row_ids) != ids:
            raise SchemaError(f"OOF file for {model_id!r} does not match cv_truth")
        matrices.append(probs)

    weights = optimize_weights(matrices, truth, model_ids=config.model_ids,
                               step_schedule=config.step_schedule,
                               seed=config.seed)
    weights.write_csv(out / WEIGHTS)

    blended = blend(matrices, weights.weights)
    write_oof_csv(out / ENSEMBLE_OOF, ids, folds, "ensemble_opt", blended)
    mean_f1 = micro_f1(predicted_classes(mean_blend(matrices)), truth)
    with csv_writer(out / ENSEMBLE_METRICS) as writer:
        writer.writerow(["model_id", "micro_f1", "weight"])
        for i, model_id in enumerate(config.model_ids):
            single = micro_f1(predicted_classes(matrices[i]), truth)
            writer.writerow([model_id, repr(single), repr(float(weights.weights[i]))])
        writer.writerow(["ensemble_mean", repr(mean_f1), ""])
        writer.writerow(["ensemble_opt", repr(weights.objective), ""])
    _note(f"optimized ensemble micro-F1 {weights.objective:.4f} "
          f"(mean blend {mean_f1:.4f})")


def cmd_predict(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, TRAIN_MANIFEST, WEIGHTS, POPULATION_LONG)
    manifest = load_json(out / TRAIN_MANIFEST)
    model_ids = manifest.get("model_ids") if isinstance(manifest, dict) else None
    if not (isinstance(model_ids, list)
            and all(isinstance(m, str) for m in model_ids)):
        raise SchemaError(f"{TRAIN_MANIFEST}: 'model_ids' is not a list of model ids")
    _require(out, *[_stack_json(m) for m in model_ids])
    _require(out, *[_model_json(m) for m in model_ids])
    weights = read_weights_csv(out / WEIGHTS)
    if list(weights.model_ids) != list(model_ids):
        raise SchemaError("ensemble weights do not match the trained models")

    if not config.predict_path.exists():
        raise DependencyError(f"prediction input not found: {config.predict_path}")
    table, diagnostics = parse_observations(config.predict_path, "lenient")
    if len(table) == 0:
        raise EmptyInputError(f"no valid rows in {config.predict_path}")
    if diagnostics:
        _note(f"predict: dropped {len(diagnostics)} invalid rows")
    population = read_population_long(out / POPULATION_LONG)
    table = join_population(table, population)

    applied = {}  # stack sidecar bytes -> features; equal stacks apply once
    matrices = []
    for model_id in model_ids:
        path = out / _stack_json(model_id)
        key = path.read_bytes()
        if key not in applied:
            applied[key] = apply_stack(stack_from_obj(load_json(path)), table)
        learner = learner_from_obj(load_json(out / _model_json(model_id)))
        matrices.append(predict_proba(learner, applied[key]))
    blended = blend(matrices, weights.weights)
    classes = predicted_classes(blended)

    with csv_writer(out / PREDICTIONS) as writer:
        writer.writerow(["row_id", "predicted_class"]
                        + [f"p_class_{c}" for c in range(blended.shape[1])])
        for i, row_id in enumerate(table.ids):
            writer.writerow([row_id, int(classes[i])]
                            + [repr(float(p)) for p in blended[i]])
    _note(f"predicted {len(table)} rows")


def _read_simple_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with csv_reader(path) as reader:
        header = next(reader)
        return header, list(reader)


def cmd_report(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, MISSINGNESS, CV_SUMMARY, ENSEMBLE_METRICS)

    # model comparison table: single models plus both ensembles
    _, metric_rows = _read_simple_csv(out / ENSEMBLE_METRICS)
    with csv_writer(out / MODEL_COMPARISON) as writer:
        writer.writerow(["model_id", "micro_f1", "weight"])
        writer.writerows(metric_rows)
    comparison_bars = [(row[0], float(row[1])) for row in metric_rows]
    write_svg(out / "model_comparison.svg",
              bar_chart_svg(comparison_bars, "OOF micro-F1 by model",
                            "model", "micro-F1"))

    _, missing_rows = _read_simple_csv(out / MISSINGNESS)
    bars = [(row[0], float(row[2])) for row in missing_rows]
    write_svg(out / "missingness.svg",
              bar_chart_svg(bars, "Missing-value fraction by field",
                            "field", "fraction missing"))

    for field in config.category_fields:
        path = out / _category_csv(field)
        if not path.exists():
            continue
        _, rows = _read_simple_csv(path)
        write_svg(out / f"category_{field}.svg",
                  bar_chart_svg([(r[1], float(r[3])) for r in rows],
                                f"Distribution of {field}", field, "fraction"))

    for field in config.trend_fields:
        path = out / _trend_csv(field)
        if not path.exists():
            continue
        _, rows = _read_simple_csv(path)
        if not rows:
            continue
        points = [(float(r[0]), float(r[1])) for r in rows]
        write_svg(out / f"trend_{field}.svg",
                  line_chart_svg([(field, points)], f"Annual mean of {field}",
                                 "year", f"mean {field}"))

    header, summary_rows = _read_simple_csv(out / CV_SUMMARY)
    fold_count = len(header) - 2
    if fold_count >= 2:
        series = []
        for row in summary_rows:
            points = [(float(f), float(row[2 + f])) for f in range(fold_count)]
            series.append((row[0], points))
        write_svg(out / "per_fold_f1.svg",
                  line_chart_svg(series, "Per-fold micro-F1", "fold", "micro-F1"))
    _note("report bundle written")


_COMMAND_TABLE = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "eda": cmd_eda,
    "features": cmd_features,
    "cv": cmd_cv,
    "train": cmd_train,
    "ensemble": cmd_ensemble,
    "predict": cmd_predict,
    "report": cmd_report,
}
COMMANDS = tuple(_COMMAND_TABLE)


def dispatch(command: str, config_path: str, out_override: str | None = None,
             seed_override: int | None = None) -> int:
    """Run one command under the output-directory lock; returns 0 on
    success. Failures raise SkyglowError subclasses, which the CLI entry
    point turns into a one-line message and exit code 1."""
    if command not in COMMANDS:
        raise SkyglowError(f"unknown command: {command!r}")
    config = load_config(config_path, out_override, seed_override,
                         require_inputs=(command != "synth"))
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    lock_path = out / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(
            f"output directory is locked by another run: {lock_path}") from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        with open(out / CONFIG_ECHO, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_config(config))
        _COMMAND_TABLE[command](config)
    finally:
        lock_path.unlink(missing_ok=True)
    return 0
