"""The eight workflow commands plus the synthetic-data generator, wired
over the library modules. Every command reads its inputs from files, writes
its artifacts into the output directory, and is byte-for-byte idempotent
for a fixed config and seed. Diagnostics go to stderr only.

`ingest` and `eda` only read and write CSV and compute pure-Python
statistics, and run on the modules imported below, which load no numpy.
Every other function a command calls (the feature, learner, metric,
validation, ensemble and sidecar code, the generator and the SVG charts)
is bound here to a stand-in that imports the function's module when it is
called (`_LAZY_IMPORTS`), so a stage loads only the modules whose
functions it calls: `report` loads the chart code and no numpy, `ensemble`
no learner or feature-stack code, `features` no learner (its
`labelled_folds` comes from `folds`), and only `synth` the generator.
Each name is looked up here when a command runs, so patching
`commands.<name>` reaches every command.
"""

from __future__ import annotations

import fcntl
import importlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from ..dataset import (
    CATEGORY, CLEAN_OBSERVATIONS, CONFUSION, CORRELATIONS, CV_ROUNDS, CV_SUMMARY,
    CV_TRUTH, ENSEMBLE_METRICS, ENSEMBLE_OOF, FEATURES, INGEST_DIAGNOSTICS,
    METRICS, MISSINGNESS, MODEL_COMPARISON, OOF, POPULATION_LONG, PREDICTIONS,
    TREND, WEIGHTS, ObservationTable, annual_trend, category_distribution,
    derived_numeric_columns, join_population, missingness_report, open_text,
    parse_observations, parse_population, pearson, read_population_long,
    read_rows, unfinished_files, write_observations, write_population,
    write_rows,
)
from ..errors import (
    ConfigError,
    DependencyError,
    EmptyInputError,
    LockError,
    ParseError,
    SchemaError,
    SkyglowError,
    UndefinedCorrelationError,
)
from ..specs import N_CLASSES, StackSpec
from .config import RunConfig, load_config, render_config

if TYPE_CHECKING:
    from ..features.stack import StackModel

# The functions the commands call beyond the imports above, by the module
# each comes from (relative to this package).
_LAZY_IMPORTS = {
    "..ensemble": ("blend", "mean_blend", "optimize_weights", "read_weights_csv"),
    "..features": ("target_classes",),
    "..features.stack": ("apply_stack", "fit_stack"),
    "..folds": ("labelled_folds",),
    "..metrics": ("micro_f1", "predicted_classes", "read_cv_truth", "read_oof_csv",
                  "write_matrix", "write_oof_csv"),
    "..serialize": ("decode_json", "json_text", "learner_from_obj",
                    "learner_to_obj", "load_json", "save_json",
                    "stack_from_obj", "stack_to_obj"),
    "..synth": ("write_synthetic_dataset",),
    "..validation": ("fit_models", "predict_proba", "run_cv"),
    ".svg": ("bar_chart_svg", "line_chart_svg", "write_svg"),
    # bench/tracing.py patches these names here, so they stay importable
    "..learners": ("fit_forest", "fit_gbdt", "predict_proba_forest"),
}


def _stand_in(module_name: str, name: str):
    """A function that imports `module_name` and calls its `name`."""
    def call(*args, **kwargs):
        module = importlib.import_module(module_name, __package__)
        return getattr(module, name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


globals().update((name, _stand_in(module_name, name))
                 for module_name, names in _LAZY_IMPORTS.items() for name in names)


# The files beside the CSV artifacts.
FEATURES_SIDECAR = "features_stack.json"
TRAIN_MANIFEST = "train_manifest.json"
LOCK_FILE = ".skyglow.lock"
CONFIG_ECHO = "config_echo.ini"

CORRELATION_FIELDS = ("time_zone", "latitude", "longitude", "elevation_m",
                      "sensor_reading", "population", "year", "month",
                      "day_of_year", "seconds_of_day")


def _stack_json(model_id: str) -> str:
    return f"stack_{model_id}.json"


def _model_json(model_id: str) -> str:
    return f"model_{model_id}.json"


def _from_sidecar(from_obj, payload, name: str):
    """from_obj(payload); a payload that does not fit raises a ParseError
    naming the sidecar `name` it was read from."""
    try:
        return from_obj(payload)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from None


def _require(out_dir: Path, *names: str) -> None:
    for name in names:
        if not (out_dir / name).exists():
            raise DependencyError(
                f"missing prerequisite artifact: {out_dir / name} "
                f"(run the producing command first)")


def _make_directory(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the directory {path}: {exc.strerror}") from None


def _note(message: str) -> None:
    print(f"skyglow: {message}", file=sys.stderr)


def _note_diagnostics(stack: StackModel, label: str) -> None:
    """Report what a fitted stack's feature pipeline excluded or zeroed."""
    for diagnostic in stack.pipeline.diagnostics:
        _note(f"{label}: {diagnostic}")


def _load_clean_table(config: RunConfig) -> ObservationTable:
    out = config.output_dir
    _require(out, CLEAN_OBSERVATIONS.name, POPULATION_LONG.name)
    table, _ = parse_observations(out / CLEAN_OBSERVATIONS.name, "strict")
    population = read_population_long(out / POPULATION_LONG.name)
    return join_population(table, population)


def cmd_synth(config: RunConfig) -> None:
    _make_directory(config.observations_path.parent)
    _make_directory(config.population_path.parent)
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
    write_observations(table, out / CLEAN_OBSERVATIONS.name)
    write_population(population, out / POPULATION_LONG.name)
    write_rows(out / INGEST_DIAGNOSTICS.name, INGEST_DIAGNOSTICS.header(),
               ([diag.line, diag.row_id, diag.message] for diag in diagnostics))
    _note(f"ingested {len(table)} rows ({len(diagnostics)} dropped), "
          f"{len(population)} population records")


def cmd_eda(config: RunConfig) -> None:
    table = _load_clean_table(config)
    out = config.output_dir
    # derives each row's time parts and day part, which the table keeps for
    # the time_of_day_category counts
    numeric = derived_numeric_columns(table)
    write_rows(out / MISSINGNESS.name, MISSINGNESS.header(),
               (row + (len(table),) for row in missingness_report(table)))
    for field in config.category_fields:
        write_rows(out / CATEGORY.name.format(field), CATEGORY.header(),
                   ((field,) + row for row in category_distribution(table, field)))

    target = numeric["limiting_magnitude"]
    rows = []
    for field in CORRELATION_FIELDS:
        column = numeric[field]
        pairs = sum(a is not None and b is not None
                    for a, b in zip(column, target))
        try:
            rows.append([field, pearson(column, target), pairs, ""])
        except UndefinedCorrelationError as exc:
            rows.append([field, "", pairs, str(exc)])
    write_rows(out / CORRELATIONS.name, CORRELATIONS.header(), rows)
    for field in config.trend_fields:
        write_rows(out / TREND.name.format(field), TREND.header(field),
                   annual_trend(table, field))
    _note(f"eda reports written for {len(table)} rows")


def cmd_features(config: RunConfig) -> None:
    """Write the full stack fitted on the labelled rows, as `train` fits
    each model with text and neighbor blocks, and its matrix."""
    out = config.output_dir
    table = _load_clean_table(config)
    table, targets, assignment = labelled_folds(
        table, target_classes(table), config.cv_k, config.seed, config.stratified)
    spec = StackSpec(use_text=True, use_neighbor=True,
                     vocab_cap=config.vocab_cap, svd_rank=config.svd_rank)
    stack, matrix = fit_stack(table, targets, assignment.folds,
                              config.feature_config, spec, config.seed)
    _note_diagnostics(stack, "features")
    write_matrix(out / FEATURES.name, FEATURES.header() + list(stack.columns),
                 ([row_id] for row_id in table.ids), matrix)
    save_json(out / FEATURES_SIDECAR, stack_to_obj(stack))
    _note(f"feature matrix {matrix.shape[0]}x{matrix.shape[1]} written")


def cmd_cv(config: RunConfig) -> None:
    out = config.output_dir
    table = _load_clean_table(config)
    result = run_cv(table, config.feature_config, config.specs,
                    k=config.cv_k, seed=config.seed,
                    stratified=config.stratified)

    for warning in result.warnings:
        _note(warning)

    write_rows(out / CV_TRUTH.name, CV_TRUTH.header(),
               zip(result.row_ids, result.folds.tolist(), result.truth.tolist()))

    summary_rows = []
    for model in result.models:
        write_oof_csv(out / OOF.name.format(model.model_id), result.row_ids,
                      result.folds, model.model_id, model.probabilities)
        model.metrics.write_csv(out / METRICS.name.format(model.model_id))
        model.metrics.write_confusion_csv(out / CONFUSION.name.format(model.model_id))
        summary_rows.append([model.model_id, model.metrics.micro_f1,
                             *model.metrics.per_fold_f1])
        for diag in model.diagnostics:
            _note(f"{model.model_id}: {diag}")
        _note(f"{model.model_id}: OOF micro-F1 {model.metrics.micro_f1:.4f}")
    write_rows(out / CV_SUMMARY.name, CV_SUMMARY.header(width=result.k),
               summary_rows)
    write_rows(out / CV_ROUNDS.name, CV_ROUNDS.header(),
               ([model.model_id, fold, kept] for model in result.models
                for fold, kept in enumerate(model.rounds)))


def _refit_rounds(config: RunConfig) -> dict[str, int]:
    """Rounds `train` boosts each GBDT model for: the upper median of the
    rounds its fold models kept in `cv`, read from cv_rounds.csv. Fails
    unless every GBDT model of the roster has exactly one row for each
    fold of the configured k, each within its configured rounds; otherwise
    `cv` ran under another config."""
    path = config.output_dir / CV_ROUNDS.name
    _, rows = read_rows(path, CV_ROUNDS)
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
        # read_rows has checked each count to be >= 0
        counts = sorted(count for _, count in kept[spec.model_id])
        if counts[-1] > spec.params.n_rounds:
            raise SchemaError(
                f"{path}: {spec.model_id} kept {counts[-1]} rounds in a fold but "
                f"is configured for {spec.params.n_rounds}; run cv with this "
                "config first")
        refit[spec.model_id] = counts[len(counts) // 2]
    return refit


def cmd_train(config: RunConfig) -> None:
    """Fit every model on all labelled rows, each GBDT model for the rounds
    `_refit_rounds` reads from `cv`, which must have dealt the folds this
    config deals. The manifest is removed before the first sidecar is
    written and written last, so a run that stops part way leaves no
    manifest and `predict` refuses the mixed sidecars. Models that share a
    feature stack get the same stack sidecar text, encoded once."""
    out = config.output_dir
    _require(out, CV_ROUNDS.name, CV_TRUTH.name)
    rounds = _refit_rounds(config)
    specs = [replace(spec, params=replace(spec.params, n_rounds=rounds[spec.model_id]))
             if spec.model_id in rounds else spec for spec in config.specs]
    table = _load_clean_table(config)
    table, targets, assignment = labelled_folds(
        table, target_classes(table), config.cv_k, config.seed, config.stratified)
    cv_ids, cv_folds, _ = read_cv_truth(out / CV_TRUTH.name)
    if cv_ids != list(table.ids) or cv_folds.tolist() != assignment.folds.tolist():
        raise SchemaError(f"{out / CV_TRUTH.name}: row ids or folds differ from the "
                          "folds of this config; run cv with this config first")

    manifest = {"model_ids": list(config.model_ids), "n_classes": N_CLASSES,
                "rounds": rounds}
    (out / TRAIN_MANIFEST).unlink(missing_ok=True)
    sidecars = {}  # stack spec -> sidecar text: a shared stack encodes once
    for configured, (spec, stack, _, model) in zip(config.specs, fit_models(
            table, targets, assignment.folds, config.feature_config, specs,
            config.seed)):
        if spec.stack not in sidecars:
            sidecars[spec.stack] = json_text(stack_to_obj(stack))
            _note_diagnostics(stack, spec.model_id)
        with open_text(out / _stack_json(spec.model_id), "w") as fh:
            fh.write(sidecars[spec.stack])
        save_json(out / _model_json(spec.model_id), learner_to_obj(model))
        boosted = (f", {spec.params.n_rounds} of {configured.params.n_rounds} "
                   "rounds" if spec.kind == "gbdt" else "")
        _note(f"trained {spec.model_id} on {len(table)} rows, "
              f"{len(stack.columns)} features{boosted}")
    save_json(out / TRAIN_MANIFEST, manifest)


def cmd_ensemble(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, CV_TRUTH.name, *map(OOF.name.format, config.model_ids))
    ids, folds, truth = read_cv_truth(out / CV_TRUTH.name)
    matrices = []
    for model_id in config.model_ids:
        path = out / OOF.name.format(model_id)
        row_ids, oof_folds, file_model_id, probs = read_oof_csv(path)
        if (file_model_id != model_id or list(row_ids) != ids
                or oof_folds.tolist() != folds.tolist()):
            raise SchemaError(f"{path}: model id, row ids or folds differ "
                              f"from {CV_TRUTH.name}")
        matrices.append(probs)

    weights = optimize_weights(matrices, truth, model_ids=config.model_ids,
                               step_schedule=config.step_schedule,
                               seed=config.seed)
    weights.write_csv(out / WEIGHTS.name)

    blended = blend(matrices, weights.weights)
    write_oof_csv(out / ENSEMBLE_OOF.name, ids, folds, "ensemble_opt", blended)
    mean_f1 = micro_f1(predicted_classes(mean_blend(matrices)), truth)
    write_rows(out / ENSEMBLE_METRICS.name, ENSEMBLE_METRICS.header(), [
        *([model_id, micro_f1(predicted_classes(matrix), truth), weight]
          for model_id, matrix, weight in zip(config.model_ids, matrices,
                                              weights.weights.tolist())),
        ["ensemble_mean", mean_f1, ""],
        ["ensemble_opt", weights.objective, ""]])
    _note(f"optimized ensemble micro-F1 {weights.objective:.4f} "
          f"(mean blend {mean_f1:.4f})")


def cmd_predict(config: RunConfig) -> None:
    out = config.output_dir
    _require(out, TRAIN_MANIFEST, WEIGHTS.name, POPULATION_LONG.name)
    manifest = load_json(out / TRAIN_MANIFEST)
    model_ids = manifest.get("model_ids") if isinstance(manifest, dict) else None
    if not (isinstance(model_ids, list)
            and all(isinstance(m, str) for m in model_ids)):
        raise SchemaError(f"{TRAIN_MANIFEST}: 'model_ids' is not a list of model ids")
    _require(out, *[_stack_json(m) for m in model_ids])
    _require(out, *[_model_json(m) for m in model_ids])
    weights = read_weights_csv(out / WEIGHTS.name)
    if list(weights.model_ids) != list(model_ids):
        raise SchemaError("ensemble weights do not match the trained models")

    if not config.predict_path.is_file():
        raise DependencyError(
            f"prediction input is not an existing file: {config.predict_path}")
    table, diagnostics = parse_observations(config.predict_path, "lenient")
    if len(table) == 0:
        raise EmptyInputError(f"no valid rows in {config.predict_path}")
    if diagnostics:
        _note(f"predict: dropped {len(diagnostics)} invalid rows")
    population = read_population_long(out / POPULATION_LONG.name)
    table = join_population(table, population)

    applied = {}  # sidecar bytes -> (stack, features): equal stacks apply once
    matrices = []
    for model_id in model_ids:
        stack_json, model_json = _stack_json(model_id), _model_json(model_id)
        key = (out / stack_json).read_bytes()
        if key not in applied:
            stack = _from_sidecar(stack_from_obj,
                                  decode_json(key, out / stack_json), stack_json)
            applied[key] = stack, apply_stack(stack, table)
        stack, X = applied[key]
        learner = _from_sidecar(learner_from_obj, load_json(out / model_json),
                                model_json)
        if learner.feature_names != stack.columns:
            raise SchemaError(f"{model_json}: feature_names differ from the "
                              f"columns of {stack_json}")
        matrices.append(predict_proba(learner, X))
    blended = blend(matrices, weights.weights)
    classes = predicted_classes(blended)

    write_matrix(out / PREDICTIONS.name, PREDICTIONS.header(width=blended.shape[1]),
                 zip(table.ids, classes.tolist()), blended)
    _note(f"predicted {len(table)} rows")


def cmd_report(config: RunConfig) -> None:
    """Write the report bundle. Every input is read and every chart drawn
    before the first file is written, so a malformed input fails the stage
    and leaves the output directory as it was."""
    out = config.output_dir
    _require(out, MISSINGNESS.name, CV_SUMMARY.name, ENSEMBLE_METRICS.name,
             *map(CATEGORY.name.format, config.category_fields),
             *map(TREND.name.format, config.trend_fields))

    # model comparison table: single models plus both ensembles
    _, metric_rows = read_rows(out / ENSEMBLE_METRICS.name, ENSEMBLE_METRICS)
    charts = [("model_comparison.svg",
               bar_chart_svg([(model_id, f1) for model_id, f1, _ in metric_rows],
                             "OOF micro-F1 by model", "model", "micro-F1"))]

    _, rows = read_rows(out / MISSINGNESS.name, MISSINGNESS)
    charts.append(("missingness.svg",
                   bar_chart_svg([(field, fraction) for field, _, fraction, _ in rows],
                                 "Missing-value fraction by field",
                                 "field", "fraction missing")))

    for field in config.category_fields:
        _, rows = read_rows(out / CATEGORY.name.format(field), CATEGORY)
        charts.append((f"category_{field}.svg",
                       bar_chart_svg([(category, fraction)
                                      for _, category, _, fraction in rows],
                                     f"Distribution of {field}", field,
                                     "fraction")))

    for field in config.trend_fields:
        _, points = read_rows(out / TREND.name.format(field), TREND, field)
        if not points:
            continue
        charts.append((f"trend_{field}.svg",
                       line_chart_svg([(field, points)], f"Annual mean of {field}",
                                      "year", f"mean {field}")))

    header, summary_rows = read_rows(out / CV_SUMMARY.name, CV_SUMMARY)
    if len(header) - len(CV_SUMMARY.leading) >= 2:  # at least two folds
        series = [(row[0], [(float(f), f1) for f, f1 in enumerate(row[2:])])
                  for row in summary_rows]
        charts.append(("per_fold_f1.svg",
                       line_chart_svg(series, "Per-fold micro-F1", "fold",
                                      "micro-F1")))

    write_rows(out / MODEL_COMPARISON.name, MODEL_COMPARISON.header(), metric_rows)
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
    # the node name is what platform.node() returns on POSIX, without
    # importing platform
    os.pwrite(fd, f"{os.getpid()} {os.uname().nodename}".encode(), 0)
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
    config = load_config(config_path, out_override, seed_override,
                         require_inputs=(command != "synth"))
    out = config.output_dir
    _make_directory(out)

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
