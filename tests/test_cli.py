import configparser
import dataclasses
import dis
import fcntl
import hashlib
import importlib
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
from contextlib import contextmanager
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from skyglow import dataset, metrics, specs, textfeat, validation
from skyglow.cli import commands
from skyglow.cli.commands import COMMANDS, dispatch
from skyglow.cli.config import load_config, render_config
from skyglow.cli.main import main
from skyglow.cli.svg import escape
from skyglow.dataset import ObservationTable, write_observations
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
from skyglow.features.stack import fit_stack
from skyglow.folds import fold_assignment, labelled_folds
from skyglow.serialize import learner_to_obj, load_json, save_json, stack_to_obj
from skyglow.validation import fit_models

from helpers import grid_table, obs


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
                  "[features]\nknn_k = 0\n", "[features]\nsvd_rank = 0\n",
                  "[features]\nvocab_cap = 0\n", "[model.forest]\nl2 = nan\n",
                  "[model.forest]\nl2 = inf\n", "[models]\nids = .hidden\n"):
        path = tmp_path / "bad.ini"
        path.write_text(base + extra, encoding="utf-8")
        with pytest.raises(ParameterError):
            load_config(path, require_inputs=False)


def test_model_id_that_is_no_file_name_fails_with_one_line(tmp_path, capsys):
    # ids name the files a model writes (oof_<id>.csv), so `a/b` fails
    # while the config loads, before any stage writes a file
    path = tmp_path / "bad.ini"
    path.write_text("[data]\nobservations = x\npopulation = y\n"
                    f"[output]\ndirectory = {tmp_path / 'out'}\n"
                    "[models]\nids = a/b\n", encoding="utf-8")
    assert main(["synth", "--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "skyglow: error: model_id must be letters, digits, '_', '-' and '.', "
        "not starting with '.', got 'a/b'"]
    assert not (tmp_path / "out").exists()


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


def test_writing_out_the_default_roster_equals_omitting_it(tmp_path):
    base = "[data]\nobservations = x\npopulation = y\n"
    loaded = {}
    for name, models in (("omitted", ""),
                         ("listed", "[models]\nids = gbdt_full, gbdt_plain, forest\n"),
                         ("forest", "[models]\nids = forest, other\n")):
        path = tmp_path / f"{name}.ini"
        path.write_text(base + models, encoding="utf-8")
        loaded[name] = load_config(path, require_inputs=False)
    assert loaded["listed"].specs == loaded["omitted"].specs
    assert render_config(loaded["listed"]) == render_config(loaded["omitted"])
    forest, other = loaded["forest"].specs
    assert forest == loaded["omitted"].specs[2] and forest.kind == "forest"
    # an id outside the default roster is a gbdt with the full stack
    assert (other.kind, other.stack) == ("gbdt", loaded["omitted"].specs[0].stack)


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


@pytest.mark.parametrize("key, fields", [
    ("category_fields", "clouds, bogus"),
    ("category_fields", "sensor_reading"),
    ("trend_fields", "limiting_magnitude, bogus"),
    ("trend_fields", "clouds"),
])
def test_bad_report_fields_fail_before_eda_writes(tmp_path, config, capsys,
                                                  key, fields):
    # a field eda cannot summarise fails the config, before the echo or the
    # first report is written
    for command in ("synth", "ingest"):
        assert dispatch(command, config) == 0, command
    out = tmp_path / "out"
    before = _snapshot(out)
    write_config(Path(config), out, f"[report]\n{key} = {fields}\n")
    capsys.readouterr()
    assert main(["eda", "--config", config]) == 1
    assert capsys.readouterr().err == (
        f"skyglow: error: invalid value for: report.{key}\n")
    assert _snapshot(out) == before


def test_report_fields_take_every_field_eda_summarises(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[data]\nobservations = obs.csv\npopulation = pop.csv\n"
                    "[report]\ntrend_fields = population, time_zone\n"
                    f"category_fields = {', '.join(dataset.CATEGORICAL_REPORT_FIELDS)}\n",
                    encoding="utf-8")
    loaded = load_config(path, require_inputs=False)
    assert loaded.trend_fields == ("population", "time_zone")
    assert loaded.category_fields == dataset.CATEGORICAL_REPORT_FIELDS


def test_render_config_round_trips(tmp_path, config):
    loaded = load_config(config, require_inputs=False)
    echo = tmp_path / "echo.ini"
    echo.write_text(render_config(loaded), encoding="utf-8")
    again = load_config(echo, require_inputs=False)
    assert again == loaded


def ini_sections(text):
    """The sections of an ini text as (section, [(key, value), ...]), in
    file order; `;` after whitespace starts a comment."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    parser.read_string(text)
    return [(section, list(parser[section].items())) for section in parser.sections()]


def write_entries(path, entries):
    """Write {(section, key): text} as an ini file, a block per section."""
    sections = {}
    for (section, key), text in entries.items():
        sections.setdefault(section, []).append(f"{key} = {text}")
    path.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                            for section, lines in sections.items()), encoding="utf-8")


INPUTS = {("data", "observations"): "obs.csv", ("data", "population"): "pop.csv"}


def test_readme_configuration_reference_matches_the_default_echo(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("### Configuration reference", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    paths = {*INPUTS, ("predict", "observations")}

    def listed(text):
        return [(section, [(key, value) for key, value in items
                           if (section, key) not in paths])
                for section, items in ini_sections(text)
                if not section.startswith("model.") or section == "model.gbdt_full"]

    path = tmp_path / "run.ini"
    write_entries(path, INPUTS)
    assert listed(block) == listed(render_config(load_config(path, require_inputs=False)))


def other_value(text):
    """A valid value other than the default `text`, chosen by its form."""
    if text in ("true", "false"):
        return "false" if text == "true" else "true"
    if "," in text:
        return text.rsplit(",", 1)[0]
    try:
        number = int(text)
        return str(number - 1 if number > 1 else number + 1)
    except ValueError:
        pass
    try:
        return repr(float(text) / 2)
    except ValueError:
        return {"lenient": "strict", "gbdt": "forest", "forest": "gbdt"}.get(
            text, f"other_{text}")


DEFAULT_ENTRIES = [(section, key, value) for section, items in ini_sections(DEFAULT_ECHO)
                   for key, value in items]


@pytest.mark.parametrize("section,key,default", DEFAULT_ENTRIES,
                         ids=[f"{section}.{key}" for section, key, _ in DEFAULT_ENTRIES])
def test_every_echoed_key_is_read_back(tmp_path, section, key, default):
    value = other_value(default)
    assert value != default
    path = tmp_path / "run.ini"
    write_entries(path, INPUTS | {(section, key): value})
    echo = dict(ini_sections(render_config(load_config(path, require_inputs=False))))
    assert dict(echo[section])[key] == value


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
    with pytest.raises(DependencyError, match="observations_clean.csv"):
        dispatch("cv", config)
    assert dispatch("ingest", config) == 0
    with pytest.raises(DependencyError, match="cv_rounds.csv"):
        dispatch("train", config)
    with pytest.raises(DependencyError, match="cv_truth.csv"):
        dispatch("ensemble", config)
    with pytest.raises(DependencyError, match="train_manifest.json"):
        dispatch("predict", config)


@contextmanager
def _holding(lock):
    """Hold an flock on `lock` through a second open file, as a running
    command holds it."""
    fd = os.open(lock, os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def test_lock_blocks_and_is_released(tmp_path, config):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    with _holding(lock):
        with pytest.raises(LockError, match="locked"):
            dispatch("synth", config)
    assert dispatch("synth", config) == 0
    assert not lock.exists()


def test_stale_lock_is_cleared_and_a_live_one_blocks(tmp_path, config, capsys):
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    host = socket.gethostname()
    # a held lock blocks, whatever it names
    with _holding(lock):
        for holder in (f"{os.getpid()} {host}", "1 elsewhere.invalid", ""):
            lock.write_text(holder, encoding="utf-8")
            with pytest.raises(LockError, match=re.escape(f"(holder {holder!r})")):
                dispatch("synth", config)
    # a process that takes the lock and waits blocks until it is killed
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, platform, sys, time\n"
         "fd = os.open(sys.argv[1], os.O_CREAT | os.O_RDWR)\n"
         "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
         "os.write(fd, f'{os.getpid()} {platform.node()}'.encode())\n"
         "print('locked', flush=True)\n"
         "time.sleep(600)\n", str(lock)],
        stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "locked\n"
        holder = f"{child.pid} {host}"
        with pytest.raises(LockError, match=re.escape(holder)):
            dispatch("synth", config)
    finally:
        child.kill()
        child.wait(timeout=60)
        child.stdout.close()
    capsys.readouterr()
    assert dispatch("synth", config) == 0
    assert (f"cleared the stale lock {lock} of process {holder}, which no "
            "longer holds it") in capsys.readouterr().err
    assert not lock.exists()
    # a lock written by a process that has exited since
    subprocess.run([sys.executable, "-c",
                    "import os, socket, sys; open(sys.argv[1], 'w').write("
                    "f'{os.getpid()} {socket.gethostname()}')", str(lock)],
                   check=True, timeout=60)
    capsys.readouterr()
    assert dispatch("synth", config) == 0
    assert "cleared the stale lock" in capsys.readouterr().err
    assert not lock.exists()


def test_unheld_lock_is_cleared_whatever_it_names(tmp_path, config, capsys):
    # no process holds these locks: not this live process of this host,
    # whose PID a run of an earlier boot may have had, nor one of another host
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    for pid, host in ((os.getpid(), platform.node()), (1, "elsewhere.invalid")):
        holder = f"{pid} {host}"
        lock.write_text(holder, encoding="utf-8")
        unfinished = out / f".weights.csv.{pid}.tmp"
        unfinished.write_text("half", encoding="utf-8")
        capsys.readouterr()
        assert dispatch("synth", config) == 0
        assert capsys.readouterr().err.splitlines()[:2] == [
            f"skyglow: cleared the stale lock {lock} of process {holder}, "
            "which no longer holds it",
            f"skyglow: removed {unfinished.name}, which that process left "
            "unfinished"]
        assert not lock.exists()
        assert not unfinished.exists()


def test_empty_unheld_lock_is_taken_over_without_a_note(tmp_path, config,
                                                        capsys):
    # what a run killed after creating the lock, before naming itself, leaves
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    lock.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(["synth", "--config", config]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("skyglow: wrote "), err
    assert not lock.exists()


@pytest.mark.parametrize("replaced", [True, False])
def test_lock_retries_when_its_file_is_released_before_the_flock(
        tmp_path, config, monkeypatch, replaced):
    # between this run's open and its flock, which locks the file it opened,
    # the holder released the lock, unlinking that file, and maybe another
    # run made a new lock file
    out = tmp_path / "out"
    out.mkdir()
    lock = out / ".skyglow.lock"
    real_flock = fcntl.flock
    calls = []

    def flock(fd, operation):
        calls.append(operation)
        if len(calls) == 1 and replaced:
            fresh = tmp_path / "fresh.lock"
            fresh.write_text("", encoding="utf-8")
            os.replace(fresh, lock)
        elif len(calls) == 1:
            lock.unlink()
        real_flock(fd, operation)

    held = []

    def probe(config):
        # the command runs holding the lock on the file the path names
        fd = os.open(lock, os.O_RDWR)
        try:
            with pytest.raises(BlockingIOError):
                real_flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
        held.append(lock.read_text(encoding="utf-8"))

    monkeypatch.setattr(fcntl, "flock", flock)
    monkeypatch.setitem(commands._COMMAND_TABLE, "synth", probe)
    assert dispatch("synth", config) == 0
    assert len(calls) == 2
    assert held == [f"{os.getpid()} {platform.node()}"]
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
        f"{child.pid} {platform.node()}, which no longer holds it",
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


# Installed before skyglow is imported: any import of numpy or a submodule
# of it raises, so a stage that loads numpy fails.
NUMPY_BLOCKER = SCIPY_BLOCKER.replace("Scipy", "Numpy").replace("scipy", "numpy")


def _run_python(code):
    src = Path(commands.__file__).resolve().parents[2]
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()


def test_ingest_and_report_run_without_numpy(tmp_path, config):
    out = tmp_path / "out"
    assert dispatch("synth", config) == 0
    inputs = {p.name for p in out.iterdir()}
    for command in COMMANDS[1:]:
        assert dispatch(command, config) == 0, command

    unblocked = digests(out)
    for path in out.iterdir():
        if path.name not in inputs:
            path.unlink()

    def blocked(command):
        return _run_python(
            NUMPY_BLOCKER
            + "from skyglow.cli.main import main\n"
            + f"assert main([{command!r}, '--config', {config!r}]) == 0\n"
            + "assert 'numpy' not in sys.modules\n"
            + "try:\n"
            + "    import numpy\n"
            + "except ImportError:\n"
            + "    print('numpy blocked')\n")

    assert blocked("ingest")[-1] == "numpy blocked"
    for command in COMMANDS[COMMANDS.index("eda"):COMMANDS.index("report")]:
        assert dispatch(command, config) == 0, command
    assert blocked("report")[-1] == "numpy blocked"
    assert digests(out) == unblocked


def test_eda_runs_without_numpy(tmp_path, config):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("eda")]:
        assert dispatch(command, config) == 0, command
    before = tmp_path / "before"
    shutil.copytree(out, before)
    assert dispatch("eda", config) == 0
    unblocked = digests(out)

    shutil.rmtree(out)
    shutil.copytree(before, out)
    lines = _run_python(
        NUMPY_BLOCKER
        + "from skyglow.cli.main import main\n"
        + f"assert main(['eda', '--config', {config!r}]) == 0\n"
        + "assert 'numpy' not in sys.modules\n"
        + "try:\n"
        + "    import numpy\n"
        + "except ImportError:\n"
        + "    print('numpy blocked')\n")
    assert lines == ["numpy blocked"]
    assert digests(out) == unblocked


def test_package_import_loads_no_module_and_the_cli_no_numpy():
    # importing the CLI binds the fitting names to stand-ins, which load
    # nothing until they are called; an unknown name still fails
    assert _run_python(
        "import sys\n"
        "import skyglow\n"
        "print(sorted(m for m in sys.modules if m.startswith('skyglow.')))\n"
        "import skyglow.cli.main\n"
        "print('numpy' in sys.modules)\n"
        "from skyglow.cli import commands\n"
        "print(hasattr(commands, 'no_such_name'))\n") == ["[]", "False", "False"]


def test_patched_command_names_reach_the_commands_in_a_fresh_process(config):
    # before any dispatch, looking a name up gives its stand-in and loads
    # nothing; a patch made then is the name the command calls
    lines = _run_python(
        "import sys\n"
        "from skyglow.cli import commands\n"
        "from skyglow.cli.commands import dispatch\n"
        "getattr(commands, 'fit_stack'), commands.run_cv\n"
        "assert 'numpy' not in sys.modules\n"
        "called = []\n"
        "def patch(name):\n"
        "    original = getattr(commands, name)\n"
        "    def wrapper(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        return original(*args, **kwargs)\n"
        "    setattr(commands, name, wrapper)\n"
        "patch('fit_stack')\n"
        "patch('run_cv')\n"
        "for command in ('synth', 'ingest', 'features', 'cv'):\n"
        f"    assert dispatch(command, {config!r}) == 0, command\n"
        "    print(command, called)\n")
    assert lines == ["synth []", "ingest []", "features ['fit_stack']",
                     "cv ['fit_stack', 'run_cv']"]


# The package modules each light stage must not load: the feature stack,
# the learners, the sidecar codec, the generator and validation, which
# imports them all. `eda` reads the table's own columns through the
# pure-Python statistics of `dataset`, so it loads no feature code, no
# column view, no tokenizer and no metric helpers; `ensemble` reads CSV
# only, so it loads no feature or text code either.
_FITTING = ("skyglow.validation", "skyglow.learners", "skyglow.features.stack",
            "skyglow.serialize", "skyglow.synth")
LIGHT_STAGE_BLOCKS = {
    "eda": _FITTING + ("skyglow.ensemble", "skyglow.features",
                       "skyglow.columnview", "skyglow.textfeat",
                       "skyglow.metrics"),
    "ensemble": _FITTING + ("skyglow.features", "skyglow.textfeat"),
}

MODULE_BLOCKER = """\
import sys


class BlockModules:
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in {blocked!r}):
            raise ImportError(f"{{name}} is blocked")
        return None


sys.meta_path.insert(0, BlockModules())
"""


@pytest.mark.parametrize("stage", sorted(LIGHT_STAGE_BLOCKS))
def test_light_stages_load_no_fitting_code(tmp_path, config, stage):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index(stage)]:
        assert dispatch(command, config) == 0, command
    before = tmp_path / "before"
    shutil.copytree(out, before)
    assert dispatch(stage, config) == 0
    unblocked = digests(out)

    shutil.rmtree(out)
    shutil.copytree(before, out)
    blocked = LIGHT_STAGE_BLOCKS[stage]
    lines = _run_python(
        MODULE_BLOCKER.format(blocked=blocked)
        + "from skyglow.cli.main import main\n"
        + f"assert main([{stage!r}, '--config', {config!r}]) == 0\n"
        + f"for name in {blocked!r}:\n"
        + "    try:\n"
        + "        __import__(name)\n"
        + "    except ImportError:\n"
        + "        print('blocked', name)\n")
    assert lines == [f"blocked {name}" for name in blocked]
    assert digests(out) == unblocked


# The `skyglow` modules each stage loads when it runs in a fresh process:
# a stage imports only the modules whose functions it calls, so only
# `synth` loads the generator, only `report` the chart code, and only
# `ensemble` and `predict` the blend; `cv` reads no sidecar and loads no
# codec, and `features` deals its folds without the learners or
# `validation`.
_CLI = ("cli", "cli.commands", "cli.config", "cli.main", "dataset", "errors",
        "specs")
_FEATURE_STACK = ("columnview", "features", "features.knn",
                  "features.neighbors", "features.pipeline", "features.stack",
                  "folds", "metrics", "orderstats", "textfeat")
_FITTING_STACK = _FEATURE_STACK + (
    "learners", "learners.binning", "learners.forest", "learners.gbdt",
    "learners.params", "validation")
STAGE_MODULES = {
    "synth": _CLI + ("synth",),
    "ingest": _CLI,
    "eda": _CLI,
    "features": _CLI + _FEATURE_STACK + ("serialize",),
    "cv": _CLI + _FITTING_STACK,
    "train": _CLI + _FITTING_STACK + ("serialize",),
    "ensemble": _CLI + ("ensemble", "metrics"),
    "predict": _CLI + _FITTING_STACK + ("ensemble", "serialize"),
    "report": _CLI + ("cli.svg",),
}


def test_each_stage_loads_only_the_modules_it_runs(config):
    assert set(STAGE_MODULES) == set(COMMANDS)
    for stage in COMMANDS:
        lines = _run_python(
            "import sys\n"
            "from skyglow.cli.main import main\n"
            f"assert main([{stage!r}, '--config', {config!r}]) == 0\n"
            "for name in sorted(sys.modules):\n"
            "    if name.startswith('skyglow.'):\n"
            "        print(name[len('skyglow.'):])\n")
        assert lines == sorted(STAGE_MODULES[stage]), stage


# Library modules a stage has no use for, each about 3-15 ms to import:
# numpy.ma comes with np.unique's hash path, np.quantile and np.median,
# platform with numpy.
UNLOADED = {"ingest": ("platform",), "eda": ("platform",),
            "features": ("numpy.ma",), "cv": ("numpy.ma",),
            "train": ("numpy.ma",), "predict": ("numpy.ma",),
            "report": ("platform",)}


def test_stages_leave_unused_library_modules_unloaded(config):
    for stage in COMMANDS:
        if stage not in UNLOADED:
            assert dispatch(stage, config) == 0, stage
            continue
        lines = _run_python(
            "import sys\n"
            "from skyglow.cli.main import main\n"
            f"assert main([{stage!r}, '--config', {config!r}]) == 0\n"
            f"print(*(name in sys.modules for name in {UNLOADED[stage]!r}))\n")
        assert lines == [" ".join(["False"] * len(UNLOADED[stage]))], stage


def test_every_lazy_import_names_a_callable_of_its_module():
    # a misspelled entry would otherwise fail at its first call in a stage
    for module_name, names in commands._LAZY_IMPORTS.items():
        module = importlib.import_module(module_name, commands.__package__)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name} {name}"


def _global_names(function, seen=None) -> set[str]:
    """The global names that `function` and the functions of its module
    that it calls refer to, comprehensions and lambdas included."""
    seen = set() if seen is None else seen
    names, codes = set(), [function.__code__]
    while codes:
        code = codes.pop()
        names.update(op.argval for op in dis.get_instructions(code)
                     if op.opname == "LOAD_GLOBAL")
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    for name in names - seen:
        value = vars(commands).get(name)
        if callable(value) and getattr(value, "__module__", None) == commands.__name__:
            seen.add(name)
            names |= _global_names(value, seen)
    return names


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_binds_every_lazy_name_it_calls(command):
    # a module global that is not bound raises NameError when the command
    # reaches it; every name a command refers to is bound at import, and
    # each lazy one to the stand-in of its module's function
    called = _global_names(commands._COMMAND_TABLE[command])
    bound = vars(commands)
    builtins = vars(bound["__builtins__"]) if not isinstance(
        bound["__builtins__"], dict) else bound["__builtins__"]
    assert sorted(called - bound.keys() - builtins.keys()) == []
    lazy = {name: module_name for module_name, names in commands._LAZY_IMPORTS.items()
            for name in names}
    for name in called & lazy.keys():
        stand_in = bound[name]
        assert stand_in.__module__ == commands.__name__ and stand_in.__name__ == name
        module = importlib.import_module(lazy[name], commands.__package__)
        assert callable(getattr(module, name, None)), f"{lazy[name]} {name}"


def test_eda_decomposes_each_timestamp_once(tmp_path, config, monkeypatch):
    # the time_of_day_category counts come from the day parts that the
    # correlation columns derive, not from a second pass over the clock
    for command in ("synth", "ingest"):
        assert dispatch(command, config) == 0, command
    table, _ = dataset.parse_observations(
        tmp_path / "out" / commands.CLEAN_OBSERVATIONS, "strict")
    timestamps = sum(record.time is not None for record in table)
    calls = Counter()

    def counted(name):
        original = getattr(dataset, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(dataset, name, wrapper)

    for name in ("decompose_time", "_day_part"):
        counted(name)
    assert dispatch("eda", config) == 0
    assert calls == {"decompose_time": timestamps, "_day_part": timestamps}
    rows = (tmp_path / "out" / "category_time_of_day_category.csv").read_text(
        encoding="utf-8").splitlines()
    assert sum(int(row.split(",")[2]) for row in rows[1:]) == timestamps


def test_patched_light_stage_names_reach_the_commands(config):
    # a name patched before the first dispatch is the name the light
    # stage calls: its own binding keeps the patch
    lines = _run_python(
        "from skyglow.cli import commands\n"
        "from skyglow.cli.commands import dispatch\n"
        "from skyglow.ensemble import optimize_weights\n"
        "from skyglow.dataset import pearson\n"
        "called = []\n"
        "def patch(name, original):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        return original(*args, **kwargs)\n"
        "    setattr(commands, name, wrapper)\n"
        "patch('pearson', pearson)\n"
        "patch('optimize_weights', optimize_weights)\n"
        "for command in ('synth', 'ingest', 'eda', 'features', 'cv', 'ensemble'):\n"
        f"    assert dispatch(command, {config!r}) == 0, command\n"
        "    print(command, sorted(set(called)))\n")
    assert lines == ["synth []", "ingest []", "eda ['pearson']",
                     "features ['pearson']", "cv ['pearson']",
                     "ensemble ['optimize_weights', 'pearson']"]


@pytest.mark.parametrize("name, owners", [
    ("LearnerParams", ("learners", "learners.params", "learners.gbdt",
                       "learners.forest", "cli.config")),
    ("FeatureConfig", ("features", "features.pipeline", "features.stack",
                       "validation", "cli.config")),
    ("StackSpec", ("features.stack", "cli.config")),
    ("LearnerSpec", ("validation", "cli.config")),
    ("SynthConfig", ("synth", "cli.config")),
    ("DEFAULT_STEP_SCHEDULE", ("ensemble", "cli.config")),
    ("DEFAULT_VOCAB_CAP", ("textfeat",)),
    ("DEFAULT_SVD_RANK", ("textfeat",)),
])
def test_settings_types_are_one_object_under_every_import_path(name, owners):
    for owner in owners:
        module = importlib.import_module(f"skyglow.{owner}")
        assert getattr(module, name) is getattr(specs, name), owner


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

    def count(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key or name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(commands, "fit_stack")
    count(validation, "fit_stack")
    count(commands, "apply_stack")
    # the held-out folds reach each fold's stacks through validation
    count(validation, "apply_stack", "held_out_apply_stack")
    # counted wherever they are looked up, so the counts hold whichever
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
    for command, expected in (
            ("features", {"fit_stack": 1}),
            ("cv", {"fit_stack": 6, "held_out_apply_stack": 6}),
            ("train", {"fit_stack": 2, "held_out_apply_stack": 0}),
            ("ensemble", {"fit_stack": 0}),
            ("predict", {"apply_stack": 2})):
        calls.clear()
        assert dispatch(command, config) == 0, command
        for name, n_calls in expected.items():
            assert calls[name] == n_calls, (command, name)
        # each timestamp is decomposed once, by `dataset`
        derived = 0 if command == "ensemble" else rows
        assert calls["decompose_time"] == derived, command
        assert calls["tokenize"] <= 2 * rows, command

    # the sidecars train saved are what fit_models returns on the target rows
    run = load_config(config)
    out = run.output_dir
    table, targets, folds = _labelled_folds(run)
    fitted = list(fit_models(table, targets, folds, run.feature_config,
                             run.specs, run.seed))
    assert [spec.model_id for spec, *_ in fitted] == ["boost", "plain", "woods"]
    for spec, stack, _, model in fitted:
        assert load_json(out / f"model_{spec.model_id}.json") == \
            learner_to_obj(model)
        assert load_json(out / f"stack_{spec.model_id}.json") == \
            stack_to_obj(stack)


def _labelled_folds(run):
    """The (table, targets, folds) that `train` fits on under `run`."""
    table = commands._load_clean_table(run)
    table, targets, assignment = labelled_folds(
        table, target_classes(table), run.cv_k, run.seed, run.stratified)
    return table, targets, assignment.folds


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
    _, _, _, full = next(fit_models(*_labelled_folds(run), run.feature_config,
                                    run.specs[:1], run.seed))
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
    for spec, _, _, model in fit_models(*_labelled_folds(run),
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


def test_train_refuses_cv_of_other_folds(tmp_path, config, capsys):
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("train") + 1]:
        assert dispatch(command, config) == 0, command
    # the same rows cross-validated at another seed fall in other folds
    truth = (out / "cv_truth.csv").read_bytes()
    assert dispatch("cv", config, seed_override=8) == 0
    assert (out / "cv_truth.csv").read_bytes() != truth
    before = _snapshot(out)
    capsys.readouterr()
    assert main(["train", "--config", config]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"skyglow: error: {out / 'cv_truth.csv'}: row ids or folds differ from "
        "the folds of this config; run cv with this config first"]
    # no sidecar written and the manifest kept: nothing but the config echo
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


def test_features_writes_the_full_stack_train_fits_on(tmp_path):
    # the synthetic table has rows without a target; features fits on the
    # labelled rows alone, as train does
    config = str(_three_model_config(tmp_path))
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("train") + 1]:
        assert dispatch(command, config) == 0, command
    run = load_config(config)
    full = [spec for spec in run.specs
            if spec.stack.use_text and spec.stack.use_neighbor]
    assert [spec.model_id for spec in full] == ["boost", "woods"]
    sidecar = (out / "features_stack.json").read_bytes()
    for spec in full:
        assert (out / f"stack_{spec.model_id}.json").read_bytes() == sidecar

    table, targets, folds = _labelled_folds(run)
    assert len(table) < len(commands._load_clean_table(run))
    cv_ids, _, _ = metrics.read_cv_truth(out / "cv_truth.csv")
    assert cv_ids == list(table.ids)
    lines = (out / "features.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == cv_ids
    _, X = fit_stack(table, targets, folds, run.feature_config, full[0].stack,
                     run.seed)
    written = np.array([[float(value) for value in row[1:]] for row in rows])
    assert np.array_equal(written, X)


def test_unstratified_folds_run_features_cv_and_train(tmp_path):
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out"))
    path.write_text(path.read_text(encoding="utf-8").replace(
        "[cv]\nk = 2\n", "[cv]\nk = 2\nstratified = false\n"), encoding="utf-8")
    config = str(path)
    out = tmp_path / "out"
    for command in COMMANDS[:COMMANDS.index("train") + 1]:
        assert dispatch(command, config) == 0, command
    assert (out / "train_manifest.json").exists()
    run = load_config(config)
    assert run.stratified is False
    table = commands._load_clean_table(run)
    targets = target_classes(table)
    keep = ~np.isnan(targets)
    labels = targets[keep].astype(np.int64)
    ids, folds, truth = metrics.read_cv_truth(out / "cv_truth.csv")
    assert ids == [row_id for row_id, kept in zip(table.ids, keep) if kept]
    assert np.array_equal(truth, labels)
    assert np.array_equal(
        folds, fold_assignment(labels, run.cv_k, run.seed, stratified=False).folds)
    # the key reaches the deal: stratifying deals these rows otherwise
    assert not np.array_equal(
        folds, fold_assignment(labels, run.cv_k, run.seed, stratified=True).folds)


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


def _nan_leaves(text):
    payload = json.loads(text)
    leaves = payload["trees"][0][0]["value"]
    leaves["data"] = [float("nan")] * len(leaves["data"])
    return json.dumps(payload).encode("utf-8")


def _object_features(text):
    payload = json.loads(text)
    payload["trees"][0][0]["feature"]["dtype"] = "object"
    return json.dumps(payload).encode("utf-8")


def _overflowing_point(text):
    payload = json.loads(text)
    payload["neighbor"]["points"]["data"][0] = 1.25e300
    return json.dumps(payload).replace("1.25e+300", "1e999").encode("utf-8")


def test_sidecars_save_json_never_writes_fail_predict_with_one_line(
        tmp_path, config, capsys):
    out = tmp_path / "out"
    for before in COMMANDS[:COMMANDS.index("predict")]:
        assert dispatch(before, config) == 0, before
    assert (out / "stack_boost.json").read_bytes() == \
        (out / "stack_woods.json").read_bytes()
    for name, tamper in [
            ("model_boost.json", _nan_leaves),
            ("model_woods.json", lambda text: b"\xff" + text.encode("utf-8")),
            ("model_boost.json", _object_features),
            ("stack_woods.json", _overflowing_point)]:
        sidecar = out / name
        original = sidecar.read_bytes()
        sidecar.write_bytes(tamper(original.decode("utf-8")))
        capsys.readouterr()
        assert main(["predict", "--config", config]) == 1, name
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("skyglow: error:"), err
        assert name in err[0], err
        assert not (out / "predictions.csv").exists()
        sidecar.write_bytes(original)
    assert main(["predict", "--config", config]) == 0


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
        (metrics.read_cv_truth, "cv_truth.csv", "row_id,fold,true_class", "r0,0,1"),
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
    row_ids, _, model_id, probs = metrics.read_oof_csv(path)
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


@pytest.mark.parametrize("stratified, k, empty", [
    # four rows of each class dealt round-robin fill four folds
    ("true", 5, [4]),
    # more folds than labelled rows
    ("false", 34, [32, 33]),
])
def test_a_fold_count_that_leaves_a_fold_empty_fails_with_one_line(
        tmp_path, capsys, stratified, k, empty):
    path = Path(write_config(tmp_path / "run.ini", tmp_path / "out"))
    path.write_text(path.read_text(encoding="utf-8").replace(
        "[cv]\nk = 2\n", f"[cv]\nk = 2\nstratified = {stratified}\n"),
        encoding="utf-8")
    config = str(path)
    assert dispatch("synth", config) == 0
    write_observations(ObservationTable(
        obs(id=f"r{i}", latitude=float(i), limiting_magnitude=float(i % 8))
        for i in range(32)), tmp_path / "out" / "obs.csv")
    for command in ("ingest", "features", "cv"):
        assert dispatch(command, config) == 0, command
    path.write_text(path.read_text(encoding="utf-8").replace(
        "k = 2\n", f"k = {k}\n"), encoding="utf-8")
    # each stage that deals the folds names k and the empty ones
    for command in ("features", "cv"):
        capsys.readouterr()
        assert main([command, "--config", config]) == 1, command
        assert capsys.readouterr().err.splitlines() == [
            f"skyglow: error: k={k} leaves folds {empty} empty among 32 "
            "labelled rows; lower [cv] k"]
