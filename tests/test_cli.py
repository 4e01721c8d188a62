import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from skyglow import dataset, textfeat, validation
from skyglow.cli import commands
from skyglow.cli.commands import COMMANDS, dispatch
from skyglow.cli.config import load_config, render_config
from skyglow.cli.main import main
from skyglow.cli.svg import escape
from skyglow.dataset import write_observations
from skyglow.ensemble import read_weights_csv
from skyglow.errors import (
    ConfigError,
    DependencyError,
    EmptyInputError,
    LockError,
    ParameterError,
    SchemaError,
)
from skyglow.features import pipeline, target_classes
from skyglow.serialize import learner_to_obj, load_json, save_json, stack_to_obj
from skyglow.validation import fit_models, fold_labels

from helpers import grid_table


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


def test_repeated_model_id_fails_before_anything_is_fitted(tmp_path, config,
                                                           capsys):
    out = tmp_path / "out"
    for command in ("synth", "ingest", "features"):
        assert dispatch(command, config) == 0, command
    path = Path(config)
    path.write_text(path.read_text(encoding="utf-8").replace(
        "ids = boost, woods", "ids = boost, woods, boost"), encoding="utf-8")
    with pytest.raises(ConfigError,
                       match="models.ids lists a model id more than once: boost$"):
        load_config(config)
    capsys.readouterr()
    assert main(["train", "--config", config]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:") and err[0].endswith(": boost")
    assert not list(out.glob("model_*.json"))
    assert not (out / "train_manifest.json").exists()


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


def test_stale_lock_is_cleared_and_a_live_one_blocks(tmp_path, config, capsys):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    host = socket.gethostname()
    for holder in (f"{os.getpid()} {host}", "1 elsewhere.invalid"):
        lock.write_text(holder, encoding="utf-8")
        with pytest.raises(LockError, match=re.escape(holder)):
            dispatch("synth", config)
    # a lock written by a process that has exited since
    subprocess.run([sys.executable, "-c",
                    "import os, socket, sys; open(sys.argv[1], 'w').write("
                    "f'{os.getpid()} {socket.gethostname()}')", str(lock)],
                   check=True, timeout=60)
    capsys.readouterr()
    assert dispatch("synth", config) == 0
    assert "cleared the stale lock" in capsys.readouterr().err
    assert not lock.exists()


@pytest.mark.skipif(not hasattr(time, "CLOCK_BOOTTIME"),
                    reason="no boot-time clock on this platform")
def test_lock_from_an_earlier_boot_is_cleared(tmp_path, config, capsys,
                                              monkeypatch):
    # this process is alive, so only the lock's age can show that its PID
    # belonged to a process of an earlier boot
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    holder = f"{os.getpid()} {platform.node()}"
    lock.write_text(holder, encoding="utf-8")
    with pytest.raises(LockError, match=re.escape(holder)):
        dispatch("synth", config)
    boot = time.time() - time.clock_gettime(time.CLOCK_BOOTTIME)
    os.utime(lock, (boot - 60.0, boot - 60.0))
    with monkeypatch.context() as patch:  # without the clock, the PID decides
        patch.delattr(time, "CLOCK_BOOTTIME")
        with pytest.raises(LockError, match=re.escape(holder)):
            dispatch("synth", config)
    capsys.readouterr()
    assert dispatch("synth", config) == 0
    assert (f"cleared the stale lock {lock} of process {holder}, which is no "
            "longer running") in capsys.readouterr().err
    assert not lock.exists()


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_train_killed_mid_write_is_refused_then_rerun_cleanly(tmp_path, config,
                                                              capsys):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("report")]:
        assert dispatch(command, config) == 0, command
    clean = _snapshot(out)

    # a real train run that stops after writing model_boost.json in full,
    # before moving it into place, and is killed there
    stalled = tmp_path / "stalled"
    code = ("import os, pathlib, sys, time\n"
            "replace = os.replace\n"
            "def stall(src, dst):\n"
            "    if pathlib.Path(dst).name == 'model_boost.json':\n"
            "        pathlib.Path(sys.argv[1]).touch()\n"
            "        time.sleep(600)\n"
            "    replace(src, dst)\n"
            "os.replace = stall\n"
            "from skyglow.cli.main import main\n"
            "main(['train', '--config', sys.argv[2]])\n")
    src = Path(commands.__file__).resolve().parents[2]
    child = subprocess.Popen([sys.executable, "-c", code, str(stalled), config],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120.0
        while not stalled.exists() and child.poll() is None:
            assert time.monotonic() < deadline, "train never reached the write"
            time.sleep(0.01)
        assert child.poll() is None, "train exited before the write"
    finally:
        child.kill()
        child.wait(timeout=60)
    unfinished = f".model_boost.json.{child.pid}.tmp"
    assert (out / unfinished).exists()
    assert (out / ".skyglow.lock").read_text(encoding="utf-8") == \
        f"{child.pid} {platform.node()}"
    assert not (out / "train_manifest.json").exists()

    # until train reruns, predict's prerequisite check refuses the sidecars
    probe = tmp_path / "probe"
    shutil.copytree(out, probe)
    capsys.readouterr()
    assert main(["predict", "--config", config, "--out", str(probe)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("skyglow: error: missing prerequisite artifact: "
                       f"{probe / 'train_manifest.json'} (run the producing "
                       "command first)")
    assert (probe / "predictions.csv").read_bytes() == clean["predictions.csv"]

    assert main(["train", "--config", config]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [
        f"skyglow: cleared the stale lock {out / '.skyglow.lock'} of process "
        f"{child.pid} {platform.node()}, which is no longer running",
        f"skyglow: removed {unfinished}, which that process left unfinished"]
    assert _snapshot(out) == clean


def test_lock_host_is_the_socket_host_name():
    # the lock names its host by platform.node(), which needs no socket import
    assert platform.node() == socket.gethostname()


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

def digests(out):
    return {p.name: hashlib.md5(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


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

    before = digests(out)
    for command in COMMANDS:
        assert dispatch(command, config) == 0, command
    assert digests(out) == before

    # predictions cover every input row with a probability per class (0-7)
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("row_id,predicted_class,"
                        + ",".join(f"p_class_{c}" for c in range(8)))
    assert len(lines) - 1 == 120


# Installed before skyglow is imported: any import of scipy or a submodule
# of it raises, so a stage that still needs scipy fails.
SCIPY_BLOCKER = """\
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


def test_every_stage_runs_without_scipy(tmp_path, config):
    out = tmp_path / "out"
    assert dispatch("synth", config) == 0
    inputs = {p.name for p in out.iterdir()}
    for command in COMMANDS[1:]:
        assert dispatch(command, config) == 0, command

    unblocked = digests(out)
    for path in out.iterdir():
        if path.name not in inputs:
            path.unlink()
    src = Path(commands.__file__).resolve().parents[2]
    code = (SCIPY_BLOCKER
            + "from skyglow.cli.main import main\n"
            + f"for command in {COMMANDS[1:]!r}:\n"
            + f"    assert main([command, '--config', {config!r}]) == 0, command\n"
            + "try:\n"
            + "    import scipy\n"
            + "except ImportError:\n"
            + "    print('scipy blocked')\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "scipy blocked"
    assert digests(out) == unblocked


def test_module_entry_point_runs_once_without_warning(tmp_path, config):
    # `python -m skyglow.cli.main` must not find the module already imported
    # by its package, which runpy reports and which runs its code twice
    src = Path(commands.__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "skyglow.cli.main", "synth",
         "--config", config],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr, result.stderr
    assert result.stderr.startswith("skyglow: wrote 120 synthetic observations")


def _three_model_config(tmp_path):
    """The test config plus `plain`, a GBDT without text or neighbor
    features: three models over two distinct stacks."""
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out", extra=(
        "[model.plain]\n"
        "kind = gbdt\n"
        "rounds = 4\n"
        "use_text = false\n"
        "use_neighbor = false\n")))
    path.write_text(path.read_text(encoding="utf-8")
                    .replace("ids = boost, woods", "ids = boost, plain, woods"),
                    encoding="utf-8")
    return path


def test_cv_and_train_fit_each_distinct_stack_once(tmp_path, monkeypatch):
    # three models over two distinct stacks (boost and woods share the
    # default full stack), three folds
    path = _three_model_config(tmp_path)
    path.write_text(path.read_text(encoding="utf-8").replace("k = 2\n", "k = 3\n"),
                    encoding="utf-8")
    config = str(path)
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(commands, "fit_stack")
    count(validation, "fit_stack")
    count(commands, "apply_stack")
    # counted wherever they are looked up, so the bounds hold whichever
    # module derives a table's columns
    for module in (dataset, pipeline, textfeat):
        for name in ("decompose_time", "tokenize"):
            if hasattr(module, name):
                count(module, name)
    for command in COMMANDS[:COMMANDS.index("features")]:
        assert dispatch(command, config) == 0, command
    # every stage below loads the 120 synthetic rows (predict scores the
    # observations file itself)
    rows = len(commands._load_clean_table(load_config(config)))
    assert rows == 120
    for command, name, expected in (("features", "fit_stack", 1),
                                    ("cv", "fit_stack", 6),
                                    ("train", "fit_stack", 2),
                                    ("ensemble", "fit_stack", 0),
                                    ("predict", "apply_stack", 2)):
        calls.clear()
        assert dispatch(command, config) == 0, command
        assert calls[name] == expected, command
        assert calls["decompose_time"] <= rows, command
        assert calls["tokenize"] <= 2 * rows, command

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


def _read_cv_rounds(out):
    lines = (out / "cv_rounds.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model_id,fold,rounds"
    return [(model_id, int(fold), int(rounds))
            for model_id, fold, rounds in (line.split(",") for line in lines[1:])]


@pytest.mark.parametrize("k", [2, 3])
def test_train_boosts_the_upper_median_of_the_rounds_cv_kept(tmp_path, capsys, k):
    # on 120 rows, learning rate 1 and patience 1 stop boost early in cv
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out"))
    path.write_text(path.read_text(encoding="utf-8")
                    .replace("rounds = 8\nlearning_rate = 0.3\npatience = 8\n",
                             "rounds = 12\nlearning_rate = 1.0\npatience = 1\n")
                    .replace("k = 2\n", f"k = {k}\n"), encoding="utf-8")
    config = str(path)
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("cv") + 1]:
        assert dispatch(command, config) == 0, command
    rows = _read_cv_rounds(out)
    # one row per fold for the GBDT model, none for the forest
    assert [(model_id, fold) for model_id, fold, _ in rows] == \
        [("boost", fold) for fold in range(k)]
    kept = sorted(rounds for _, _, rounds in rows)
    assert kept[0] < 12
    assert k == 3 or kept[0] < kept[1]  # so the upper median is not the lower
    r = kept[len(kept) // 2]

    capsys.readouterr()
    assert main(["train", "--config", config]) == 0
    assert re.search(r"^skyglow: trained boost on \d+ rows, \d+ features, "
                     rf"{r} of 12 rounds$", capsys.readouterr().err, re.M)
    assert load_json(out / "train_manifest.json")["rounds"] == {"boost": r}
    saved = load_json(out / "model_boost.json")
    assert len(saved["trees"]) == r

    # the shipped model is the first r rounds of the configured 12-round fit
    run = load_config(config)
    table, targets = validation.labelled_rows(commands._load_clean_table(run))
    folds = fold_labels(targets, run.cv_k, run.seed, run.stratified)
    _, _, _, full = next(fit_models(table, targets, np.ones(len(table), dtype=bool),
                                    folds, run.feature_config, run.specs[:1],
                                    run.seed))
    assert len(full.trees) == 12
    assert saved == learner_to_obj(dataclasses.replace(
        full, params=dataclasses.replace(full.params, n_rounds=r),
        trees=full.trees[:r], train_losses=full.train_losses[:r]))


def test_train_without_an_early_stop_keeps_every_model_byte(tmp_path, config):
    # patience 8 of 8 rounds never stops, so train boosts all 8 rounds and
    # writes the bytes of a plain 8-round fit
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("train") + 1]:
        assert dispatch(command, config) == 0, command
    assert _read_cv_rounds(out) == [("boost", 0, 8), ("boost", 1, 8)]
    manifest = load_json(out / "train_manifest.json")
    assert manifest == {"model_ids": ["boost", "woods"], "n_classes": 8,
                        "rounds": {"boost": 8}}
    run = load_config(config)
    table, targets = validation.labelled_rows(commands._load_clean_table(run))
    folds = fold_labels(targets, run.cv_k, run.seed, run.stratified)
    for spec, _, _, model in fit_models(
            table, targets, np.ones(len(table), dtype=bool), folds,
            run.feature_config, run.specs, run.seed):
        expected = tmp_path / f"expected_{spec.model_id}.json"
        save_json(expected, learner_to_obj(model))
        assert (out / f"model_{spec.model_id}.json").read_bytes() == \
            expected.read_bytes(), spec.model_id


@pytest.mark.parametrize("case, edit, message", [
    ("missing", None, "missing prerequisite artifact: {out}/cv_rounds.csv"),
    ("short", lambda text: text.replace("boost,1,8\n", ""),
     "{out}/cv_rounds.csv: boost has rows for folds [0], not 0-1; "
     "run cv with this config first"),
    ("truncated", lambda text: text.replace("boost,1,8\n", "boost,1\n"),
     "cv_rounds.csv, line 3: expected 3 fields, got 2"),
    ("repeated", lambda text: text + "boost,0,8\n",
     "{out}/cv_rounds.csv: boost has rows for folds [0, 0, 1], not 0-1; "
     "run cv with this config first"),
    ("stale rounds", ("rounds = 8\n", "rounds = 6\n"),
     "{out}/cv_rounds.csv: boost kept 8 rounds in a fold but is configured "
     "for 6; run cv with this config first"),
    ("stale folds", ("k = 2\n", "k = 3\n"),
     "{out}/cv_rounds.csv: boost has rows for folds [0, 1], not 0-2; "
     "run cv with this config first"),
])
def test_train_refuses_cv_rounds_it_cannot_trust(tmp_path, config, capsys,
                                                 case, edit, message):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("cv") + 1]:
        assert dispatch(command, config) == 0, command
    rounds = out / "cv_rounds.csv"
    if edit is None:
        rounds.unlink()
    elif isinstance(edit, tuple):  # cv ran under another config
        path = Path(config)
        path.write_text(path.read_text(encoding="utf-8").replace(*edit),
                        encoding="utf-8")
    else:
        rounds.write_text(edit(rounds.read_text(encoding="utf-8")),
                          encoding="utf-8")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["train", "--config", config]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("skyglow: error: ")
    assert message.format(out=out) in err[0]
    # nothing but the config echo, which every command writes first
    after = _snapshot(out)
    before.pop("config_echo.ini")
    after.pop("config_echo.ini")
    assert after == before


def test_feature_names_equal_the_stack_sidecar_columns(tmp_path):
    config = str(_three_model_config(tmp_path))
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("train") + 1]:
        assert dispatch(command, config) == 0, command
    header = (out / "features.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[1:] == load_json(out / "features_stack.json")["columns"]
    widths = set()
    for model_id in ("boost", "plain", "woods"):
        columns = load_json(out / f"stack_{model_id}.json")["columns"]
        assert load_json(out / f"model_{model_id}.json")["feature_names"] == columns
        widths.add(len(columns))
    assert len(widths) == 2


def test_swapped_stack_sidecars_fail_predict_with_one_line(tmp_path, capsys):
    config = str(_three_model_config(tmp_path))
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("predict")]:
        assert dispatch(command, config) == 0, command
    boost, plain = out / "stack_boost.json", out / "stack_plain.json"
    boost_text = boost.read_text(encoding="utf-8")
    boost.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8")
    plain.write_text(boost_text, encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--config", config]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == ("skyglow: error: model_boost.json: feature_names differ "
                      "from the columns of stack_boost.json")
    assert not (out / "predictions.csv").exists()
    assert not (out / ".skyglow.lock").exists()


def test_features_and_train_note_each_stack_diagnostic_once(tmp_path, capsys):
    path = _three_model_config(tmp_path)
    path.write_text(path.read_text(encoding="utf-8").replace(
        "n_rows = 120\n", "n_rows = 120\nmissing_sensor_reading = 1.0\n"),
        encoding="utf-8")
    config = str(path)
    for command in ("synth", "ingest"):
        assert dispatch(command, config) == 0, command
    for command, labels in (("features", ["features"]),
                            ("train", ["boost", "plain"])):
        if command == "train":  # train refits the rounds cv kept
            assert dispatch("cv", config) == 0
        capsys.readouterr()
        assert main([command, "--config", config]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if "sensor_reading" in line]
        assert notes == [f"skyglow: {label}: column 'sensor_reading' excluded: "
                         "all values missing" for label in labels], command


def test_ingest_then_eda_keep_a_year_below_1000(tmp_path, config):
    out = tmp_path / "out"
    assert dispatch("synth", config) == 0
    observations = out / "obs.csv"
    lines = observations.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[1] = "0999-06-15 21:30:00"
    lines[1] = ",".join(cells)
    observations.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in ("ingest", "eda"):
        assert dispatch(command, config) == 0, command
    clean = (out / "observations_clean.csv").read_text(encoding="utf-8")
    assert f"{cells[0]},0999-06-15 21:30:00," in clean


def test_ensemble_rejects_oof_folds_that_differ_from_cv_truth(
        tmp_path, config, capsys):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("cv") + 1]:
        assert dispatch(command, config) == 0, command
    # the same rows cross-validated at another seed fall in other folds
    other = tmp_path / "other"
    shutil.copytree(out, other)
    assert dispatch("cv", config, out_override=str(other), seed_override=8) == 0
    assert ((other / "cv_truth.csv").read_bytes()
            != (out / "cv_truth.csv").read_bytes())
    shutil.copyfile(other / "oof_boost.csv", out / "oof_boost.csv")
    capsys.readouterr()
    assert main(["ensemble", "--config", config]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == (f"skyglow: error: {out / 'oof_boost.csv'}: model id, row "
                      "ids or folds differ from cv_truth.csv")
    assert not (out / "weights.csv").exists()


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


def test_svg_escape_matches_the_standard_library():
    for text in ("", "plain", "&<>\"'", "a&lt;b", "<&>&&<<>>\"'\"'",
                 "Tom's \"dark\" sky & <Orion>", "&amp;&#38;>"):
        assert escape(text) == sax_escape(text), text


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


def test_short_ensemble_metrics_row_fails_report_with_one_line(
        tmp_path, config, capsys):
    def truncate(text):
        lines = text.splitlines()
        assert lines[1].startswith("boost,")
        lines[1] = "boost"
        return "\n".join(lines) + "\n"
    err = _run_with_tampered(tmp_path, config, capsys, "report",
                             "ensemble_metrics.csv", truncate)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert "ensemble_metrics.csv, line 2: expected 3 fields, got 1" in err[0]


def test_extra_ensemble_metrics_column_fails_report_with_one_line(
        tmp_path, config, capsys):
    # model_comparison.csv copies each row whole under a 3-column header
    def widen(text):
        return "".join(line + ",x\n" for line in text.splitlines())
    err = _run_with_tampered(tmp_path, config, capsys, "report",
                             "ensemble_metrics.csv", widen)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert ("ensemble_metrics.csv: expected a header equal to "
            "model_id,micro_f1,weight") in err[0]
    assert not (tmp_path / "out" / "model_comparison.csv").exists()


@pytest.mark.parametrize("name, header", [
    ("missingness.csv", "field,missing_count,missing_fraction,total_rows"),
    ("category_clouds.csv", "field,category,count,fraction"),
    ("trend_limiting_magnitude.csv", "year,mean_limiting_magnitude"),
])
def test_extra_eda_column_fails_report_with_one_line(tmp_path, config, capsys,
                                                     name, header):
    # an EDA report has a fixed layout, so its whole header is checked
    def widen(text):
        return "".join(line + ",x\n" for line in text.splitlines())
    err = _run_with_tampered(tmp_path, config, capsys, "report", name, widen)
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert f"{name}: expected a header equal to {header}" in err[0]


def _snapshot(out):
    return {path.name: path.read_bytes() for path in out.iterdir()
            if path.is_file()}


def test_report_writes_nothing_when_a_later_input_is_malformed(
        tmp_path, config, capsys):
    # the trend file is read after the model comparison and the category
    # charts, so each of those must wait until every input has been checked
    out = tmp_path / "out"
    trend = out / "trend_limiting_magnitude.csv"

    def widen(text):
        return "".join(line + ",x\n" for line in text.splitlines())

    for command in COMMANDS[:COMMANDS.index("report")]:
        assert dispatch(command, config) == 0, command
    good = trend.read_text(encoding="utf-8")
    trend.write_text(widen(good), encoding="utf-8")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert _snapshot(out) == before

    # an earlier report's bundle is left as it was
    trend.write_text(good, encoding="utf-8")
    assert dispatch("report", config) == 0
    trend.write_text(widen(good), encoding="utf-8")
    before = _snapshot(out)
    assert {"model_comparison.csv", "model_comparison.svg",
            "trend_limiting_magnitude.svg"} <= set(before)
    capsys.readouterr()
    assert main(["report", "--config", config]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert _snapshot(out) == before


def test_artifact_readers_check_the_header_width(tmp_path):
    # a fixed-header artifact rejects an extra column; an OOF file's
    # header carries one p_class_* column per class
    fixed = [
        (dataset.read_population_long, "population_long.csv",
         "country,year,population", "A,2010,100"),
        (read_weights_csv, "weights.csv", "model_id,weight", "m,1.0"),
        (lambda path: commands._read_cv_truth(path.parent), "cv_truth.csv",
         "row_id,fold,true_class", "r0,0,1"),
    ]
    for read, name, header, row in fixed:
        path = tmp_path / name
        path.write_text(f"{header},extra\n{row},x\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"{name}: expected a header "
                                              f"equal to {header}$"):
            read(path)
        path.write_text(f"{header}\n{row}\n", encoding="utf-8")
        read(path)
    path = tmp_path / "oof_m.csv"
    path.write_text("row_id,fold,model_id,p_class_0,p_class_1\n"
                    "r0,0,m,0.25,0.75\n", encoding="utf-8")
    row_ids, _, model_id, probs = validation.read_oof_csv(path)
    assert row_ids == ("r0",) and model_id == "m"
    assert probs.tolist() == [[0.25, 0.75]]


def test_empty_cv_summary_fails_report_with_one_line(tmp_path, config, capsys):
    err = _run_with_tampered(tmp_path, config, capsys, "report",
                             "cv_summary.csv", lambda text: "")
    assert len(err) == 1
    assert err[0].startswith("skyglow: error:")
    assert "cv_summary.csv" in err[0] and "model_id,micro_f1" in err[0]


def test_cv_notes_a_fold_count_above_the_smallest_class(tmp_path, capsys):
    # grid_table ties the target to latitude, so its rarest class has
    # fewer than ten of the 60 rows
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out"))
    path.write_text(path.read_text(encoding="utf-8").replace("k = 2\n", "k = 10\n"),
                    encoding="utf-8")
    config = str(path)
    assert dispatch("synth", config) == 0
    write_observations(grid_table(60), tmp_path / "out" / "obs.csv")
    for command in ("ingest", "features"):
        assert dispatch(command, config) == 0, command
    capsys.readouterr()
    assert main(["cv", "--config", config]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if "exceeds the smallest class count" in line]
    assert len(notes) == 1
    assert notes[0].startswith("skyglow: k=10 exceeds the smallest class count (")
