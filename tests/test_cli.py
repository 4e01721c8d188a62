import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from skyglow import validation
from skyglow.cli import commands
from skyglow.cli.commands import COMMANDS, dispatch
from skyglow.cli.config import load_config, render_config
from skyglow.cli.main import main
from skyglow.errors import (
    ConfigError,
    DependencyError,
    EmptyInputError,
    LockError,
    ParameterError,
)
from skyglow.features import target_classes
from skyglow.serialize import learner_to_obj, load_json, stack_to_obj
from skyglow.validation import fit_models, fold_labels


def write_config(path, out_dir, extra="", n_rows=120):
    path.write_text(
        "[data]\n"
        f"observations = {out_dir / 'obs.csv'}\n"
        f"population = {out_dir / 'pop.csv'}\n"
        "[output]\n"
        f"directory = {out_dir}\n"
        "[synth]\n"
        f"n_rows = {n_rows}\n"
        "[cv]\n"
        "k = 2\n"
        "[features]\n"
        "svd_rank = 2\n"
        "knn_k = 3\n"
        "[models]\n"
        "ids = boost, woods\n"
        "[model.boost]\n"
        "kind = gbdt\n"
        "rounds = 8\n"
        "learning_rate = 0.3\n"
        "patience = 8\n"
        "[model.woods]\n"
        "kind = forest\n"
        "trees = 8\n"
        + extra,
        encoding="utf-8")
    return str(path)


# The echo of a config that sets only the two input paths.
DEFAULT_ECHO = """\
[data]
observations = obs.csv
population = pop.csv
strictness = lenient

[output]
directory = skyglow_out

[features]
quantile_low = 0.01
quantile_high = 0.99
knn_k = 10
indicator_threshold = 0.01
vocab_cap = 20000
svd_rank = 32

[cv]
k = 5
seed = 0
stratified = true

[models]
ids = gbdt_full, gbdt_plain, forest

[model.gbdt_full]
kind = gbdt
rounds = 300
learning_rate = 0.05
max_leaves = 31
min_samples_leaf = 20
max_bins = 256
l2 = 1.0
trees = 300
patience = 30
seed = 0
use_text = true
use_neighbor = true

[model.gbdt_plain]
kind = gbdt
rounds = 300
learning_rate = 0.05
max_leaves = 31
min_samples_leaf = 20
max_bins = 256
l2 = 1.0
trees = 300
patience = 30
seed = 0
use_text = false
use_neighbor = false

[model.forest]
kind = forest
rounds = 300
learning_rate = 0.05
max_leaves = 31
min_samples_leaf = 20
max_bins = 256
l2 = 1.0
trees = 300
patience = 30
seed = 0
use_text = true
use_neighbor = true

[ensemble]
steps = 0.5, 0.25, 0.1, 0.05, 0.01

[synth]
n_rows = 2000
seed = 0
missing_sensor_reading = 0.828
missing_comment_1 = 0.429
missing_comment_2 = 0.48
missing_constellation = 0.121
missing_target = 0.08
share_type_gan = 0.801
share_clouds_clear = 0.594
share_constellation_orion = 0.41
share_evening = 0.827

[report]
trend_fields = limiting_magnitude, sensor_reading, elevation_m
category_fields = sensor_type, clouds, constellation, time_of_day_category

[predict]
observations = obs.csv
"""


@pytest.fixture()
def config(tmp_path):
    return write_config(tmp_path / "run.ini", tmp_path / "out")


def read_svg(path):
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    return (len(root.findall(f".//{ns}rect")),
            len(root.findall(f".//{ns}polyline")))


# --- configuration ---

def test_unknown_section_is_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n"
                    "[weather]\nrain = yes\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="weather"):
        load_config(path, require_inputs=False)


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\ncolour = blue\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="data.colour"):
        load_config(path, require_inputs=False)


def test_missing_required_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="data.population"):
        load_config(path, require_inputs=False)


def test_unconvertible_value_is_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n"
                    "[cv]\nk = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="cv.k"):
        load_config(path, require_inputs=False)


def test_out_of_range_values_rejected(tmp_path):
    base = "[data]\nobservations = x\npopulation = y\n"
    for extra in ("[cv]\nk = 1\n", "[ensemble]\nsteps = 1.5\n",
                  "[features]\nknn_k = 0\n"):
        path = tmp_path / "bad.ini"
        path.write_text(base + extra, encoding="utf-8")
        with pytest.raises(ParameterError):
            load_config(path, require_inputs=False)


def test_missing_input_file_checked(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[data]\nobservations = nowhere.csv\npopulation = also.csv\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="nowhere.csv"):
        load_config(path)


def test_default_model_roster(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n",
                    encoding="utf-8")
    config = load_config(path, require_inputs=False)
    assert config.model_ids == ("gbdt_full", "gbdt_plain", "forest")
    by_id = {s.model_id: s for s in config.specs}
    assert by_id["gbdt_plain"].stack.use_text is False
    assert by_id["gbdt_plain"].stack.use_neighbor is False
    assert by_id["gbdt_full"].stack.use_text is True
    assert by_id["forest"].kind == "forest"


def test_overrides_beat_file_values(tmp_path, config):
    loaded = load_config(config, out_override=str(tmp_path / "elsewhere"),
                         seed_override=99, require_inputs=False)
    assert loaded.output_dir == tmp_path / "elsewhere"
    assert loaded.seed == 99
    assert loaded.synth.seed == 99


def test_default_echo_is_pinned(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[data]\nobservations = obs.csv\npopulation = pop.csv\n",
                    encoding="utf-8")
    assert render_config(load_config(path, require_inputs=False)) == DEFAULT_ECHO


def test_misspelled_model_section_is_named(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n"
                    "[model.gbdt_ful]\nrounds = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="model.gbdt_ful"):
        load_config(path, require_inputs=False)


def test_bad_values_are_reported_together(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n"
                    "[model.forest]\ntrees = many\n[cv]\nk = few\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"invalid value for: cv\.k, model\.forest\.trees$"):
        load_config(path, require_inputs=False)


def test_render_config_round_trips(tmp_path, config):
    loaded = load_config(config, require_inputs=False)
    echo = tmp_path / "echo.ini"
    echo.write_text(render_config(loaded), encoding="utf-8")
    again = load_config(echo, require_inputs=False)
    assert again == loaded


# --- dispatch plumbing ---

def test_unknown_command_rejected(config):
    with pytest.raises(Exception, match="unknown command"):
        dispatch("meditate", config)


def test_dependency_errors_name_missing_artifact(tmp_path, config):
    assert dispatch("synth", config) == 0
    assert dispatch("ingest", config) == 0
    with pytest.raises(DependencyError, match="features.csv"):
        dispatch("cv", config)
    with pytest.raises(DependencyError, match="cv_truth.csv"):
        dispatch("ensemble", config)
    with pytest.raises(DependencyError, match="train_manifest.json"):
        dispatch("predict", config)


def test_lock_blocks_and_is_released(tmp_path, config):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    lock.write_text("12345", encoding="utf-8")
    with pytest.raises(LockError, match="locked"):
        dispatch("synth", config)
    lock.unlink()
    assert dispatch("synth", config) == 0
    assert not lock.exists()


def test_ingest_of_empty_table_fails(tmp_path, config):
    dispatch("synth", config)
    header = (tmp_path / "out" / "obs.csv").read_text(
        encoding="utf-8").splitlines()[0]
    (tmp_path / "out" / "obs.csv").write_text(header + "\n", encoding="utf-8")
    with pytest.raises(EmptyInputError):
        dispatch("ingest", config)


def test_config_echo_written(tmp_path, config):
    dispatch("synth", config)
    echo = (tmp_path / "out" / "config_echo.ini").read_text(encoding="utf-8")
    assert echo == render_config(load_config(config, require_inputs=False))


# --- full pipeline ---

def test_pipeline_end_to_end_and_rerun_byte_identical(tmp_path, config):
    out = tmp_path / "out"
    for command in COMMANDS:
        assert dispatch(command, config) == 0, command

    expected = [
        "observations_clean.csv", "population_long.csv",
        "ingest_diagnostics.csv", "missingness.csv", "correlations.csv",
        "features.csv", "features_stack.json", "cv_summary.csv",
        "cv_truth.csv", "oof_boost.csv", "oof_woods.csv",
        "metrics_boost.csv", "confusion_boost.csv", "train_manifest.json",
        "stack_boost.json", "model_boost.json", "weights.csv",
        "ensemble_metrics.csv", "ensemble_oof.csv", "predictions.csv",
        "model_comparison.csv", "model_comparison.svg", "missingness.svg",
        "per_fold_f1.svg",
    ]
    for name in expected:
        assert (out / name).exists(), name
    assert not (out / ".skyglow.lock").exists()

    def digests():
        return {p.name: hashlib.md5(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir()) if p.is_file()}

    before = digests()
    for command in COMMANDS:
        assert dispatch(command, config) == 0, command
    assert digests() == before

    # predictions cover every input row with a probability per class (0-7)
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("row_id,predicted_class,"
                        + ",".join(f"p_class_{c}" for c in range(8)))
    assert len(lines) - 1 == 120


def test_cv_and_train_fit_each_distinct_stack_once(tmp_path, monkeypatch):
    # three models over two distinct stacks (boost and woods share the
    # default full stack), three folds
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out", extra=(
        "[model.plain]\n"
        "kind = gbdt\n"
        "rounds = 4\n"
        "use_text = false\n"
        "use_neighbor = false\n")))
    path.write_text(path.read_text(encoding="utf-8")
                    .replace("k = 2\n", "k = 3\n")
                    .replace("ids = boost, woods", "ids = boost, plain, woods"),
                    encoding="utf-8")
    config = str(path)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(validation, "fit_stack")
    count(commands, "apply_stack")
    for command in COMMANDS[:COMMANDS.index("cv")]:
        assert dispatch(command, config) == 0, command
    for command, name, expected in (("cv", "fit_stack", 6),
                                    ("train", "fit_stack", 2),
                                    ("ensemble", "fit_stack", 0),
                                    ("predict", "apply_stack", 2)):
        calls.clear()
        assert dispatch(command, config) == 0, command
        assert calls[name] == expected, command

    # the sidecars train saved are what fit_models returns on the target rows
    run = load_config(config)
    out = run.output_dir
    table = commands._load_clean_table(run)
    targets = target_classes(table)
    keep = ~np.isnan(targets)
    folds = fold_labels(targets, run.cv_k, run.seed, run.stratified)
    fitted = list(fit_models(table, targets, keep, folds, run.feature_config,
                             run.specs, run.seed))
    assert [spec.model_id for spec, *_ in fitted] == ["boost", "plain", "woods"]
    for spec, stack, _, model in fitted:
        assert load_json(out / f"model_{spec.model_id}.json") == \
            learner_to_obj(model)
        assert load_json(out / f"stack_{spec.model_id}.json") == \
            stack_to_obj(stack)


def test_report_svg_structure(tmp_path, config):
    out = tmp_path / "out"
    for command in COMMANDS:
        dispatch(command, config)

    n_models = sum(1 for line in
                   (out / "model_comparison.csv").read_text(
                       encoding="utf-8").splitlines()[1:] if line)
    rects, polylines = read_svg(out / "model_comparison.svg")
    assert rects == n_models + 1  # one bar per model plus the background
    assert polylines == 0

    rects, polylines = read_svg(out / "per_fold_f1.svg")
    assert rects == 1
    assert polylines == 2  # one series per model

    rects, polylines = read_svg(out / "trend_limiting_magnitude.svg")
    assert polylines == 1


# --- entry point ---

def test_main_success_and_failure_exit_codes(tmp_path, config, capsys):
    assert main(["synth", "--config", config]) == 0
    assert main(["cv", "--config", config]) == 1
    err = capsys.readouterr().err
    assert "skyglow: error:" in err


def test_main_out_override(tmp_path, config):
    elsewhere = tmp_path / "elsewhere"
    assert main(["synth", "--config", config, "--out", str(elsewhere)]) == 0
    assert (elsewhere / "config_echo.ini").exists()


def _run_with_tampered(tmp_path, config, capsys, command, name, edit):
    """Run every stage before `command`, rewrite the artifact `name` as
    edit(its text), then run `command`, which must fail and release the
    lock; returns its stderr lines."""
    out = tmp_path / "out"
    for before in COMMANDS[:COMMANDS.index(command)]:
        assert dispatch(before, config) == 0, before
    artifact = out / name
    artifact.write_text(edit(artifact.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", config]) == 1
    assert not (out / ".skyglow.lock").exists()
    return capsys.readouterr().err.splitlines()


def _predict_with_tampered_forest(tmp_path, config, capsys, tamper):
    """_run_with_tampered for predict, with `tamper` editing the forest's
    sidecar payload."""
    def edit(text):
        payload = json.loads(text)
        tamper(payload)
        return json.dumps(payload)
    return _run_with_tampered(tmp_path, config, capsys, "predict",
                              "model_woods.json", edit)


def test_tampered_sidecar_fails_with_one_line(tmp_path, config, capsys):
    err = _predict_with_tampered_forest(
        tmp_path, config, capsys, lambda payload: payload.pop("params"))
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:") and "ForestModel" in err[0]
    assert "params" in err[0]


def test_sidecar_scalar_of_wrong_type_fails_with_one_line(tmp_path, config, capsys):
    err = _predict_with_tampered_forest(
        tmp_path, config, capsys,
        lambda payload: payload.update(n_classes="eight"))
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:") and "ForestModel" in err[0]
    assert "eight" in err[0]


def test_manifest_without_model_ids_fails_with_one_line(tmp_path, config, capsys):
    err = _run_with_tampered(tmp_path, config, capsys, "predict",
                             "train_manifest.json", lambda text: "{}")
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:") and "model_ids" in err[0]


def test_truncated_weights_row_fails_with_one_line(tmp_path, config, capsys):
    def truncate(text):
        lines = text.splitlines()
        assert lines[1].startswith("boost,")
        lines[1] = "boost"
        return "\n".join(lines) + "\n"
    err = _run_with_tampered(tmp_path, config, capsys, "predict",
                             "weights.csv", truncate)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert "weights.csv, line 2: expected 2 fields, got 1" in err[0]


def test_nan_weight_fails_with_one_line(tmp_path, config, capsys):
    def poison(text):
        lines = text.splitlines()
        assert lines[1].startswith("boost,")
        lines[1] = "boost,nan"
        return "\n".join(lines) + "\n"
    err = _run_with_tampered(tmp_path, config, capsys, "predict",
                             "weights.csv", poison)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert "finite and nonnegative" in err[0]
    assert not (tmp_path / "out" / "predictions.csv").exists()


def test_non_numeric_cv_truth_fold_fails_with_one_line(tmp_path, config, capsys):
    def corrupt(text):
        lines = text.splitlines()
        row_id, _, true_class = lines[3].split(",")
        lines[3] = f"{row_id},two,{true_class}"
        return "\n".join(lines) + "\n"
    err = _run_with_tampered(tmp_path, config, capsys, "ensemble",
                             "cv_truth.csv", corrupt)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert "cv_truth.csv, line 4:" in err[0] and "'two'" in err[0]
