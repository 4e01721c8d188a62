"""Tests of the benchmark's own logic: span arithmetic, the noise
generator, the independently recomputed quality metrics, the tracer and
the speed factor.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import noise  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


# ------------------------------------------------------------ span arithmetic

def _tree() -> list[Span]:
    """stage [0, 10]
         fit [1, 7]          two children overlapping each other
           histogram [1, 3]
           histogram [2, 5]
           fit [5, 6]        same name nested: counted once in busy
         save [8, 12]        runs past its parent's end
    """
    def span(name, start, end, parent):
        return Span(name, start, end, parent, "cv", "w")
    return [span("cli.stage", 0, 10, -1), span("fit", 1, 7, 0),
            span("histogram", 1, 3, 1), span("histogram", 2, 5, 1),
            span("fit", 5, 6, 1), span("save", 8, 12, 0)]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    selfs = tracing.self_times(_tree())
    assert selfs[0] == pytest.approx(10 - (6 + 2))   # children cover [1,7] and [8,10]
    assert selfs[1] == pytest.approx(6 - 5)          # [1,5] and [5,6] cover 5 of 6
    assert selfs[2:] == pytest.approx([2, 3, 1, 4])  # leaves keep their duration


def test_busy_counts_nested_spans_of_one_name_once():
    spans = _tree()
    assert tracing.busy(spans, "fit") == pytest.approx(6)
    assert tracing.busy(spans, "histogram") == pytest.approx(2 + 3)  # siblings add up
    assert tracing.calls(spans, "fit") == 2
    assert tracing.self_total(spans, "fit", tracing.self_times(spans)) == pytest.approx(2)


def test_busy_by_prefix_takes_outermost_spans_of_the_layer():
    spans = [Span("cli.stage", 0, 10, -1, "s", "w"),
             Span("features.pipeline.fit", 1, 4, 0, "s", "w"),
             Span("features.pipeline.neighbor_points", 2, 3, 1, "s", "w"),
             Span("features.pipeline.apply", 5, 6, 0, "s", "w")]
    assert tracing.busy(spans, "features.pipeline.") == pytest.approx(4)


def test_stage_shares_count_only_the_spans_of_that_stage():
    spans = [Span("cli.stage", 0, 10, -1, "cv", "w"),
             Span("learners.gbdt.fit", 1, 7, 0, "cv", "w"),
             Span("learners.gbdt.tree_predict", 2, 5, 1, "cv", "w"),
             Span("serialize.save_json", 8, 9, 0, "cv", "w"),
             Span("cli.stage", 10, 14, -1, "train", "w"),
             Span("learners.gbdt.fit", 10, 14, 4, "train", "w")]
    shares = tracing.stage_shares(spans, "cv")
    assert shares[0] == ("learners.gbdt.fit", pytest.approx(0.6))
    assert dict(shares)["learners.gbdt.tree_predict"] == pytest.approx(0.3)
    assert dict(shares)["serialize.save_json"] == pytest.approx(0.1)
    assert tracing.busy(spans, "learners.gbdt.fit") == pytest.approx(10)


# ------------------------------------------------------------ noise generator

def _rows(n: int = 200) -> list[dict[str, str]]:
    rows = []
    for i in range(n):
        rows.append({
            "id": f"r{i}", "time_zone": "8.0", "latitude": "60.0" if i % 7 else "",
            "longitude": "120.0", "elevation_m": "950.0",
            "sensor_reading": "21.5" if i % 3 == 0 else "", "comment_1": "dark sky",
            "limiting_magnitude": "5.1" if i % 10 else ""})
    return rows


def test_noise_is_deterministic_for_a_fixed_seed():
    assert noise.add_noise(_rows(), 11) == noise.add_noise(_rows(), 11)
    assert noise.add_noise(_rows(), 11) != noise.add_noise(_rows(), 12)


def test_noise_keeps_missing_cells_and_redraws_an_exact_share_of_labels():
    rows = _rows()
    out = noise.add_noise(rows, 3)
    for before, after in zip(rows, out):
        for field in ("latitude", "sensor_reading", "limiting_magnitude"):
            assert (before[field] == "") == (after[field] == "")
        assert after["comment_1"] == before["comment_1"]
        lon = float(after["longitude"])
        assert -175.0 <= lon <= 175.0
        assert float(after["time_zone"]) == float(np.round(lon / 15.0))
    labelled = [i for i, r in enumerate(rows) if r["limiting_magnitude"]]
    changed = [i for i in labelled
               if out[i]["limiting_magnitude"] != rows[i]["limiting_magnitude"]]
    assert len(changed) == round(noise.LABEL_NOISE * len(labelled))
    assert all(0 <= checks.true_class(float(out[i]["limiting_magnitude"])) <= 7
               for i in changed)


def test_noise_rewrite_round_trips_the_header(tmp_path):
    source, dest = tmp_path / "in.csv", tmp_path / "out.csv"
    rows = _rows(20)
    with open(source, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    noise.rewrite_csv(source, dest, 5)
    header, body = checks.read_csv(dest)
    assert header == list(rows[0]) and len(body) == 20


# ----------------------------------------------------------- quality metrics

def _write(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


PROBS = {  # row -> class probabilities of model "a"; model "b" is one-hot
    "x1": [0.7, 0.3] + [0.0] * 6,
    "x2": [0.5, 0.5] + [0.0] * 6,   # tie: argmax is class 0
    "x3": [0.0, 0.0, 0.9, 0.1] + [0.0] * 4,
}
TRUTH = {"x1": 0, "x2": 1, "x3": 2}
PCOLS = [f"p_class_{c}" for c in range(8)]


def _fixture(out: Path, opt_f1: float | None = None) -> None:
    _write(out / "cv_truth.csv", ["row_id", "fold", "true_class"],
           [[r, i % 2, TRUTH[r]] for i, r in enumerate(PROBS)])
    one_hot = {r: [1.0 if c == TRUTH[r] else 0.0 for c in range(8)] for r in PROBS}
    blend = {r: [0.5 * a + 0.5 * b for a, b in zip(PROBS[r], one_hot[r])] for r in PROBS}
    for name, model, table in (("oof_a.csv", "a", PROBS), ("oof_b.csv", "b", one_hot),
                               ("ensemble_oof.csv", "ensemble_opt", blend)):
        _write(out / name, ["row_id", "fold", "model_id"] + PCOLS,
               [[r, i % 2, model] + [repr(p) for p in table[r]]
                for i, r in enumerate(PROBS)])
    _write(out / "weights.csv", ["model_id", "weight"], [["a", "0.5"], ["b", "0.5"]])
    _write(out / "ensemble_metrics.csv", ["model_id", "micro_f1", "weight"],
           [["a", repr(2 / 3), "0.5"], ["b", "1.0", "0.5"],
            ["ensemble_mean", "1.0", ""],
            ["ensemble_opt", repr(1.0 if opt_f1 is None else opt_f1), ""]])


def test_oof_quality_is_recomputed_from_the_csv_files(tmp_path):
    _fixture(tmp_path)
    f1, loss = checks.oof_quality(tmp_path, ["a", "b"])
    assert f1 == 1.0
    # blend probabilities of the true class: 0.85, 0.75, 0.95
    assert loss == pytest.approx(-(math.log(0.85) + math.log(0.75) + math.log(0.95)) / 3)
    assert checks.gain_over_mean(tmp_path) == 0.0


def test_oof_quality_rejects_a_stated_f1_that_disagrees(tmp_path):
    _fixture(tmp_path, opt_f1=2 / 3)
    with pytest.raises(checks.CheckError, match="ensemble_opt"):
        checks.oof_quality(tmp_path, ["a", "b"])


def test_oof_quality_rejects_row_ids_that_differ_from_cv_truth(tmp_path):
    _fixture(tmp_path)
    _write(tmp_path / "cv_truth.csv", ["row_id", "fold", "true_class"],
           [["x1", 0, 0], ["x3", 1, 2], ["x2", 0, 1]])
    with pytest.raises(checks.CheckError, match="row ids"):
        checks.oof_quality(tmp_path, ["a", "b"])


def test_holdout_quality_scores_labelled_rows_only(tmp_path):
    _write(tmp_path / "obs.csv", ["id", "limiting_magnitude"],
           [["x1", "0.3"], ["x2", "1.5"], ["x3", ""]])  # 1.5 rounds half up to 2
    _write(tmp_path / "predictions.csv", ["row_id", "predicted_class"] + PCOLS,
           [["x1", 0, "0.6", "0.4"] + ["0.0"] * 6,
            ["x2", 1, "0.0", "0.5", "0.5"] + ["0.0"] * 5,
            ["x3", 2, "0.0", "0.0", "1.0"] + ["0.0"] * 5])
    f1, loss = checks.holdout_quality(tmp_path, tmp_path / "obs.csv")
    assert f1 == 0.5
    assert loss == pytest.approx(-(math.log(0.6) + math.log(0.5)) / 2)


def test_predictions_must_sum_to_one_and_cover_every_input_row(tmp_path):
    _write(tmp_path / "obs.csv", ["id", "limiting_magnitude"], [["x1", "0"], ["x2", "0"]])
    _write(tmp_path / "predictions.csv", ["row_id", "predicted_class"] + PCOLS,
           [["x1", 0, "0.6", "0.3"] + ["0.0"] * 6])
    with pytest.raises(checks.CheckError, match="1 rows"):
        checks.check_predictions(tmp_path, tmp_path / "obs.csv")
    _write(tmp_path / "obs.csv", ["id", "limiting_magnitude"], [["x1", "0"]])
    with pytest.raises(checks.CheckError, match="sums to 1"):
        checks.check_predictions(tmp_path, tmp_path / "obs.csv")


def test_hash_dir_sees_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "f.csv").write_text("1\n")
    first = checks.hash_dir(tmp_path / "a")
    (tmp_path / "a" / "f.csv").write_text("2\n")
    assert checks.hash_dir(tmp_path / "a") != first


# --------------------------------------------------------------------- tracer

def test_tracer_counts_a_real_fit_and_restores_the_library():
    import skyglow.learners.binning as binning
    import skyglow.validation as validation
    from skyglow.learners.params import LearnerParams

    original = validation.fit_gbdt
    tracer = tracing.Tracer("w")
    tracer.install()
    try:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(np.int64) * 2   # classes 0 and 2 of 4
        validation.fit_gbdt(X, y, LearnerParams(n_rounds=3, min_samples_leaf=5),
                            n_classes=4)
    finally:
        tracer.uninstall()
    assert validation.fit_gbdt is original
    assert not hasattr(binning.BinnedMatrix.histogram, "__wrapped__")

    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["learners.gbdt.fit.calls"] == 1
    assert metrics["learners.gbdt.fit.trees_fitted"] == 12
    assert metrics["learners.gbdt.unsupported_class_trees"] == 6
    assert metrics["learners.gbdt.tree_predict.row_visits"] == 12 * 60
    assert metrics["learners.binning.histogram.calls"] >= 12 * 3
    assert (metrics["learners.gbdt.fit.self_s"]
            < metrics["learners.gbdt.fit.busy_s"])
    fit = tracer.spans[0]
    assert fit.name == "learners.gbdt.fit"
    assert all(s.parent == 0 for s in tracer.spans[1:]
               if s.name == "learners.binning.histogram")


def test_wrapper_cost_is_a_small_positive_time_per_call():
    assert 0 < tracing.wrapper_cost() < 1e-3


# ------------------------------------------------------------- speed factor

def test_speed_factor_averages_the_samples_inside_the_interval():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [(1.0, ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, ref / 4)]
    assert probe.factor(1.5, 3.5) == pytest.approx(0.5)
    assert probe.factor(0.5, 3.5) == pytest.approx(ref / (5 * ref / 3))
    # no sample inside: the one nearest the middle of the interval
    assert probe.factor(7.0, 8.0) == pytest.approx(4.0)


def test_speed_probe_samples_on_one_cpu_and_restores_the_affinity():
    before = os.sched_getaffinity(0)
    with speed.SpeedProbe() as probe:
        assert len(os.sched_getaffinity(0)) == 1
        deadline = time.perf_counter() + 5.0
        while len(probe.samples) < 3 and time.perf_counter() < deadline:
            time.sleep(speed.INTERVAL_S)
    assert os.sched_getaffinity(0) == before
    assert not probe._thread.is_alive()
    assert len(probe.samples) >= 3
    assert all(seconds > 0 for _, seconds in probe.samples)
