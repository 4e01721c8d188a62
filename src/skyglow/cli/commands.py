"""The eight workflow commands plus the synthetic-data generator, wired
over the library modules. Every command reads its inputs from files, writes
its artifacts into the output directory, and is byte-for-byte idempotent
for a fixed config and seed. Diagnostics go to stderr only.

`ingest` and `report` only read and write CSV and SVG, and run on the
modules imported below, which load no numpy. The names the other commands
call (numpy, the feature, learner, validation, ensemble and sidecar code)
are bound as attributes of this module by `_bind_fitting_names`, which
`dispatch` calls before any of those commands and which a first lookup of
an unbound attribute calls too (`__getattr__`). Either way each name is
looked up here when a command runs, so patching `commands.<name>` reaches
every command.
"""

from __future__ import annotations

import fcntl
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

from ..dataset import (
    ObservationTable,
    category_distribution,
    join_population,
    missingness_report,
    open_text,
    parse_observations,
    parse_population,
    read_population_long,
    read_rows,
    unfinished_files,
    write_observations,
    write_population,
    write_rows,
)
from ..errors import (
    DependencyError,
    EmptyInputError,
    LockError,
    SchemaError,
    SkyglowError,
    UndefinedCorrelationError,
)
from .config import RunConfig, load_config, render_config
from .svg import bar_chart_svg, line_chart_svg, write_svg

# The commands that run on the module-level imports alone.
_NUMPY_FREE_COMMANDS = ("ingest", "report")


def _bind_fitting_names() -> None:
    """Import the names the other commands call and bind each as an
    attribute of this module, unless it is bound already: a name that a
    caller has patched keeps its patch."""
    import numpy as np

    from ..ensemble import blend, mean_blend, optimize_weights, read_weights_csv
    from ..features import N_CLASSES, target_classes
    from ..features.pipeline import derived_numeric_columns
    from ..features.stack import StackModel, StackSpec, apply_stack, fit_stack
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
        labelled_rows,
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
    # every local name so far is one of the imports above
    for name, value in list(locals().items()):
        globals().setdefault(name, value)


def __getattr__(name: str):
    # The import system probes dunder names such as __path__ (on
    # `from .commands import ...`); answering them must not load numpy.
    if not name.startswith("__"):
        _bind_fitting_names()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


CLEAN_OBSERVATIONS = "observations_clean.csv"
POPULATION_LONG = "population_long.csv"
INGEST_DIAGNOSTICS = "ingest_diagnostics.csv"
MISSINGNESS = "missingness.csv"
CORRELATIONS = "correlations.csv"
FEATURES_CSV = "features.csv"
FEATURES_SIDECAR = "features_stack.json"
CV_SUMMARY = "cv_summary.csv"
CV_TRUTH = "cv_truth.csv"
CV_ROUNDS = "cv_rounds.csv"
TRAIN_MANIFEST = "train_manifest.json"
WEIGHTS = "weights.csv"
ENSEMBLE_METRICS = "ensemble_metrics.csv"
ENSEMBLE_OOF = "ensemble_oof.csv"
PREDICTIONS = "predictions.csv"
MODEL_COMPARISON = "model_comparison.csv"
LOCK_FILE = ".skyglow.lock"
CONFIG_ECHO = "config_echo.ini"

# Headers of the artifacts a command writes and a later command reads;
# cv_summary.csv has one fold_* column per fold after its leading columns.
CV_TRUTH_HEADER = ("row_id", "fold", "true_class")
CV_SUMMARY_HEADER = ("model_id", "micro_f1")
# one row per GBDT model per fold: the rounds that fold's model kept
CV_ROUNDS_HEADER = ("model_id", "fold", "rounds")
# ensemble_metrics.csv, and model_comparison.csv copied from it
ENSEMBLE_METRICS_HEADER = ("model_id", "micro_f1", "weight")
# The EDA reports. A missingness.csv row is a missingness_report row and the
# table's row count; a category_<field>.csv row is the field and a
# category_distribution row; a trend_<field>.csv row is an annual_trend row,
# under _trend_header(field).
MISSINGNESS_HEADER = ("field", "missing_count", "missing_fraction", "total_rows")
CATEGORY_HEADER = ("field", "category", "count", "fraction")

CORRELATION_FIELDS = ("time_zone", "latitude", "longitude", "elevation_m",
                      "sensor_reading", "population", "year", "month",
                      "day_of_year", "seconds_of_day")


def _category_csv(field: str) -> str:
    return f"category_{field}.csv"


def _trend_csv(field: str) -> str:
    return f"trend_{field}.csv"


def _trend_header(field: str) -> tuple[str, str]:
    return ("year", f"mean_{field}")


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


def _note_diagnostics(stack: StackModel, label: str) -> None:
    """Report what a fitted stack's feature pipeline excluded or zeroed."""
    for diagnostic in stack.pipeline.diagnostics:
        _note(f"{label}: {diagnostic}")


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
    write_rows(out / INGEST_DIAGNOSTICS, ["line", "row_id", "message"],
               ([diag.line, diag.row_id, diag.message] for diag in diagnostics))
    _note(f"ingested {len(table)} rows ({len(diagnostics)} dropped), "
          f"{len(population)} population records")


def cmd_eda(config: RunConfig) -> None:
    table = _load_clean_table(config)
    out = config.output_dir
    write_rows(out / MISSINGNESS, MISSINGNESS_HEADER,
               (row + (len(table),) for row in missingness_report(table)))
    for field in config.category_fields:
        write_rows(out / _category_csv(field), CATEGORY_HEADER,
                   ((field,) + row for row in category_distribution(table, field)))

    numeric = derived_numeric_columns(table)
    target = numeric["limiting_magnitude"]
    rows = []
    for field in CORRELATION_FIELDS:
        column = numeric[field]
        pairs = int((~(np.isnan(column) | np.isnan(target))).sum())
        try:
            rows.append([field, pearson(column, target), pairs, ""])
        except UndefinedCorrelationError as exc:
            rows.append([field, "", pairs, str(exc)])
    write_rows(out / CORRELATIONS,
               ["field", "pearson_with_target", "complete_pairs", "note"], rows)
    for field in config.trend_fields:
        write_rows(out / _trend_csv(field), _trend_header(field),
                   annual_trend(table, field))
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
    _note_diagnostics(stack, "features")
    write_rows(out / FEATURES_CSV, ["row_id"] + list(stack.columns),
               ([row_id] + row.tolist() for row_id, row in zip(table.ids, matrix)))
    save_json(out / FEATURES_SIDECAR, stack_to_obj(stack))
    _note(f"feature matrix {matrix.shape[0]}x{matrix.shape[1]} written")


def cmd_cv(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, FEATURES_CSV)
    table = _load_clean_table(config)
    result = run_cv(table, config.feature_config, config.specs,
                    k=config.cv_k, seed=config.seed,
                    stratified=config.stratified)

    for warning in result.warnings:
        _note(warning)

    write_rows(out / CV_TRUTH, CV_TRUTH_HEADER,
               ([row_id, int(result.folds[i]), int(result.truth[i])]
                for i, row_id in enumerate(result.row_ids)))

    summary_rows = []
    for model in result.models:
        write_oof_csv(out / _oof_csv(model.model_id), result.row_ids,
                      result.folds, model.model_id, model.probabilities)
        model.metrics.write_csv(out / _metrics_csv(model.model_id))
        model.metrics.write_confusion_csv(out / _confusion_csv(model.model_id))
        summary_rows.append([model.model_id, model.metrics.micro_f1,
                             *model.metrics.per_fold_f1])
        for diag in model.diagnostics:
            _note(f"{model.model_id}: {diag}")
        _note(f"{model.model_id}: OOF micro-F1 {model.metrics.micro_f1:.4f}")
    write_rows(out / CV_SUMMARY,
               CV_SUMMARY_HEADER + tuple(f"fold_{f}" for f in range(result.k)),
               summary_rows)
    write_rows(out / CV_ROUNDS, CV_ROUNDS_HEADER,
               ([model.model_id, fold, kept] for model in result.models
                for fold, kept in enumerate(model.rounds)))


def _refit_rounds(config: RunConfig) -> dict[str, int]:
    """Rounds `train` boosts each GBDT model for: the upper median of the
    rounds its fold models kept in `cv`, read from cv_rounds.csv. Fails
    unless every GBDT model of the roster has exactly one row for each
    fold of the configured k, each within its configured rounds; otherwise
    `cv` ran under another config."""
    path = config.output_dir / CV_ROUNDS
    _, rows = read_rows(path, CV_ROUNDS_HEADER,
                        lambda row: (row[0], int(row[1]), int(row[2])))
    kept: dict[str, list[tuple[int, int]]] = {}
    for model_id, fold, count in rows:
        kept.setdefault(model_id, []).append((fold, count))
    refit = {}
    for spec in config.specs:
        if spec.kind != "gbdt":
            continue
        folds = sorted(fold for fold, _ in kept.get(spec.model_id, ()))
        if folds != list(range(config.cv_k)):
            raise SchemaError(
                f"{path}: {spec.model_id} has rows for folds {folds}, "
                f"not 0-{config.cv_k - 1}; run cv with this config first")
        counts = sorted(count for _, count in kept[spec.model_id])
        for count in counts:
            if not 0 <= count <= spec.params.n_rounds:
                raise SchemaError(
                    f"{path}: {spec.model_id} kept {count} rounds in a fold but "
                    f"is configured for {spec.params.n_rounds}; run cv with this "
                    "config first")
        refit[spec.model_id] = counts[len(counts) // 2]
    return refit


def cmd_train(config: RunConfig) -> None:
    """Fit every model on all labelled rows, each GBDT model for the rounds
    `_refit_rounds` reads from `cv`, which must have dealt the folds this
    config deals. The manifest is removed before the first sidecar is
    written and written last, so a run that stops part way leaves no
    manifest and `predict` refuses the mixed sidecars."""
    out = config.output_dir
    _require(out, FEATURES_CSV, CV_ROUNDS, CV_TRUTH)
    rounds = _refit_rounds(config)
    specs = [replace(spec, params=replace(spec.params, n_rounds=rounds[spec.model_id]))
             if spec.model_id in rounds else spec for spec in config.specs]
    table, targets = labelled_rows(_load_clean_table(config))
    labels = fold_labels(targets, config.cv_k, config.seed, config.stratified)
    cv_ids, cv_folds, _ = _read_cv_truth(out)
    if cv_ids != list(table.ids) or not np.array_equal(cv_folds, labels):
        raise SchemaError(f"{out / CV_TRUTH}: row ids or folds differ from the "
                          "folds of this config; run cv with this config first")

    manifest = {"model_ids": list(config.model_ids), "n_classes": N_CLASSES,
                "rounds": rounds}
    (out / TRAIN_MANIFEST).unlink(missing_ok=True)
    reported = set()
    for configured, (spec, stack, _, model) in zip(config.specs, fit_models(
            table, targets, np.ones(len(table), dtype=bool), labels,
            config.feature_config, specs, config.seed)):
        if spec.stack not in reported:
            reported.add(spec.stack)
            _note_diagnostics(stack, spec.model_id)
        save_json(out / _stack_json(spec.model_id), stack_to_obj(stack))
        save_json(out / _model_json(spec.model_id), learner_to_obj(model))
        boosted = (f", {spec.params.n_rounds} of {configured.params.n_rounds} "
                   "rounds" if spec.kind == "gbdt" else "")
        _note(f"trained {spec.model_id} on {len(table)} rows, "
              f"{len(stack.columns)} features{boosted}")
    save_json(out / TRAIN_MANIFEST, manifest)


def _read_cv_truth(out: Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    _, rows = read_rows(out / CV_TRUTH, CV_TRUTH_HEADER,
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
        path = out / _oof_csv(model_id)
        row_ids, oof_folds, file_model_id, probs = read_oof_csv(path)
        if (file_model_id != model_id or list(row_ids) != ids
                or not np.array_equal(oof_folds, folds)):
            raise SchemaError(f"{path}: model id, row ids or folds differ "
                              f"from {CV_TRUTH}")
        matrices.append(probs)

    weights = optimize_weights(matrices, truth, model_ids=config.model_ids,
                               step_schedule=config.step_schedule,
                               seed=config.seed)
    weights.write_csv(out / WEIGHTS)

    blended = blend(matrices, weights.weights)
    write_oof_csv(out / ENSEMBLE_OOF, ids, folds, "ensemble_opt", blended)
    mean_f1 = micro_f1(predicted_classes(mean_blend(matrices)), truth)
    write_rows(out / ENSEMBLE_METRICS, ENSEMBLE_METRICS_HEADER, [
        *([model_id, micro_f1(predicted_classes(matrix), truth), weight]
          for model_id, matrix, weight in zip(config.model_ids, matrices,
                                              weights.weights.tolist())),
        ["ensemble_mean", mean_f1, ""],
        ["ensemble_opt", weights.objective, ""]])
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

    applied = {}  # sidecar bytes -> (stack, features): equal stacks apply once
    matrices = []
    for model_id in model_ids:
        path = out / _stack_json(model_id)
        key = path.read_bytes()
        if key not in applied:
            stack = stack_from_obj(load_json(path))
            applied[key] = stack, apply_stack(stack, table)
        stack, X = applied[key]
        learner = learner_from_obj(load_json(out / _model_json(model_id)))
        if learner.feature_names != stack.columns:
            raise SchemaError(
                f"{_model_json(model_id)}: feature_names differ from the "
                f"columns of {_stack_json(model_id)}")
        matrices.append(predict_proba(learner, X))
    blended = blend(matrices, weights.weights)
    classes = predicted_classes(blended)

    write_rows(out / PREDICTIONS,
               ["row_id", "predicted_class"]
               + [f"p_class_{c}" for c in range(blended.shape[1])],
               ([row_id, predicted] + row.tolist() for row_id, predicted, row
                in zip(table.ids, classes.tolist(), blended)))
    _note(f"predicted {len(table)} rows")


def cmd_report(config: RunConfig) -> None:
    """Write the report bundle. Every input is read and every chart drawn
    before the first file is written, so a malformed input fails the stage
    and leaves the output directory as it was."""
    out = config.output_dir
    _require(out, MISSINGNESS, CV_SUMMARY, ENSEMBLE_METRICS)

    # model comparison table: single models plus both ensembles
    _, metric_rows = read_rows(out / ENSEMBLE_METRICS, ENSEMBLE_METRICS_HEADER,
                               lambda row: (row, float(row[1])))
    comparison_bars = [(row[0], f1) for row, f1 in metric_rows]
    charts = [("model_comparison.svg",
               bar_chart_svg(comparison_bars, "OOF micro-F1 by model",
                             "model", "micro-F1"))]

    _, bars = read_rows(out / MISSINGNESS, MISSINGNESS_HEADER,
                        lambda row: (row[0], float(row[2])))
    charts.append(("missingness.svg",
                   bar_chart_svg(bars, "Missing-value fraction by field",
                                 "field", "fraction missing")))

    for field in config.category_fields:
        path = out / _category_csv(field)
        if not path.exists():
            continue
        _, bars = read_rows(path, CATEGORY_HEADER,
                            lambda row: (row[1], float(row[3])))
        charts.append((f"category_{field}.svg",
                       bar_chart_svg(bars, f"Distribution of {field}", field,
                                     "fraction")))

    for field in config.trend_fields:
        path = out / _trend_csv(field)
        if not path.exists():
            continue
        _, points = read_rows(path, _trend_header(field),
                              lambda row: (float(row[0]), float(row[1])))
        if not points:
            continue
        charts.append((f"trend_{field}.svg",
                       line_chart_svg([(field, points)], f"Annual mean of {field}",
                                      "year", f"mean {field}")))

    header, summary_rows = read_rows(
        out / CV_SUMMARY, CV_SUMMARY_HEADER,
        lambda row: (row[0], [float(f1) for f1 in row[2:]]), leading=True)
    fold_count = len(header) - 2
    if fold_count >= 2:
        series = [(model_id, [(float(f), f1) for f, f1 in enumerate(fold_f1)])
                  for model_id, fold_f1 in summary_rows]
        charts.append(("per_fold_f1.svg",
                       line_chart_svg(series, "Per-fold micro-F1", "fold",
                                      "micro-F1")))

    write_rows(out / MODEL_COMPARISON, ENSEMBLE_METRICS_HEADER,
               (row for row, _ in metric_rows))
    for name, svg_text in charts:
        write_svg(out / name, svg_text)
    _note("report bundle written")


def _lock_holder(fd: int) -> str:
    """The "PID HOST" that the open lock file `fd` names; empty if none."""
    return os.pread(fd, 4096, 0).decode("utf-8", errors="replace").strip()


def _acquire_lock(lock_path: Path) -> int:
    """Take the output-directory lock, an exclusive flock on `lock_path`,
    and return its descriptor; dispatch releases it by unlinking the path,
    then closing the descriptor. The kernel drops a flock when its holder
    exits, however it exits, so a held lock raises LockError and one that
    no process holds is taken over. The file names its holder, "PID HOST",
    for messages only: an unheld lock that names one was left by a run
    killed while holding it, and is cleared with a note, as are the
    temporary files that run left unfinished."""
    taken = False
    while not taken:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder that released the lock since the open unlinked this
            # file, so the path names another file or none: retry
            taken = os.path.samestat(os.fstat(fd), os.stat(lock_path))
        except BlockingIOError:
            holder = _lock_holder(fd)
            raise LockError(f"output directory is locked by another run "
                            f"(holder {holder!r}): {lock_path}") from None
        except FileNotFoundError:
            pass
        finally:
            if not taken:
                os.close(fd)
    holder = _lock_holder(fd)
    if holder:
        _note(f"cleared the stale lock {lock_path} of process {holder}, "
              "which no longer holds it")
        pid = holder.partition(" ")[0]
        if pid.isdigit():
            for temp in unfinished_files(lock_path.parent, int(pid)):
                temp.unlink(missing_ok=True)
                _note(f"removed {temp.name}, which that process left unfinished")
    os.ftruncate(fd, 0)
    os.pwrite(fd, f"{os.getpid()} {platform.node()}".encode(), 0)
    return fd


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
    if command not in _NUMPY_FREE_COMMANDS:
        _bind_fitting_names()
    config = load_config(config_path, out_override, seed_override,
                         require_inputs=(command != "synth"))
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)

    lock_path = out / LOCK_FILE
    fd = _acquire_lock(lock_path)
    try:
        with open_text(out / CONFIG_ECHO, "w") as fh:
            fh.write(render_config(config))
        _COMMAND_TABLE[command](config)
    finally:
        # unlinked before it is unlocked, so a run that opened this file
        # meanwhile finds that the path no longer names it
        lock_path.unlink(missing_ok=True)
        os.close(fd)
    return 0
