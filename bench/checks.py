"""Output checks and quality metrics, recomputed from the CSV artifacts.

Nothing here imports skyglow: every number is derived again from the
files a user would read, so a defect in the program's own metric code
cannot vouch for itself. A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

N_CLASSES = 8
PROB_SUM_TOL = 1e-9
F1_TOL = 1e-12
LOSS_TOL = 1e-9
LOSS_CLIP = 1e-15

CATEGORY_FIELDS = ("sensor_type", "clouds", "constellation", "time_of_day_category")
TREND_FIELDS = ("limiting_magnitude", "sensor_reading", "elevation_m")


class CheckError(Exception):
    """An artifact is missing or disagrees with an independent recomputation."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def true_class(limiting_magnitude: float) -> int:
    """Round half up and clamp to 0..7: the documented target binning."""
    return min(max(math.floor(limiting_magnitude + 0.5), 0), N_CLASSES - 1)


def observation_labels(path: Path) -> tuple[list[str], dict[str, int]]:
    """All row ids of an observation CSV, and the class of each labelled row."""
    header, rows = read_csv(path)
    id_col, target_col = header.index("id"), header.index("limiting_magnitude")
    ids = [row[id_col] for row in rows]
    labels = {row[id_col]: true_class(float(row[target_col]))
              for row in rows if row[target_col] != ""}
    return ids, labels


def micro_f1(probs: np.ndarray, truth: np.ndarray) -> float:
    """Single-label multiclass micro-F1, which equals accuracy. np.argmax
    breaks ties towards the lowest class id, the documented rule."""
    return float((np.argmax(probs, axis=1) == truth).sum()) / len(truth)


def log_loss(probs: np.ndarray, truth: np.ndarray) -> float:
    p = np.clip(probs[np.arange(len(truth)), truth], LOSS_CLIP, None)
    return float(-np.log(p).mean())


def _prob_table(path: Path, first_prob_col: int):
    header, rows = read_csv(path)
    probs = np.array([[float(v) for v in row[first_prob_col:]] for row in rows])
    if probs.shape[1:] != (N_CLASSES,):
        raise CheckError(f"{path.name}: expected {N_CLASSES} probability columns")
    return header, rows, probs


def check_predictions(out_dir: Path, input_csv: Path):
    """predictions.csv has one row per input row, in input order, each row's
    probabilities sum to 1 and its predicted class is their argmax.
    Returns (row ids, probabilities)."""
    input_ids, _ = observation_labels(input_csv)
    _, rows, probs = _prob_table(out_dir / "predictions.csv", 2)
    ids = [row[0] for row in rows]
    if ids != input_ids:
        raise CheckError(f"predictions.csv has {len(ids)} rows, input has "
                         f"{len(input_ids)}, or their order differs")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    if worst > PROB_SUM_TOL:
        raise CheckError(f"a prediction row sums to 1 +- {worst!r}")
    stated = np.array([int(row[1]) for row in rows])
    if not np.array_equal(stated, np.argmax(probs, axis=1)):
        raise CheckError("predicted_class is not the argmax of its probabilities")
    return ids, probs


def holdout_quality(out_dir: Path, input_csv: Path) -> tuple[float, float]:
    """(micro-F1, log-loss) of predictions.csv over the labelled input rows."""
    ids, probs = check_predictions(out_dir, input_csv)
    _, labels = observation_labels(input_csv)
    keep = np.array([row_id in labels for row_id in ids])
    truth = np.array([labels[row_id] for row_id in ids if row_id in labels])
    if not keep.any():
        raise CheckError("the prediction input has no labelled rows")
    return micro_f1(probs[keep], truth), log_loss(probs[keep], truth)


def _oof(path: Path):
    _, rows, probs = _prob_table(path, 3)
    return [row[0] for row in rows], [int(row[1]) for row in rows], probs


def oof_quality(out_dir: Path, model_ids: list[str]) -> tuple[float, float]:
    """(micro-F1, log-loss) of the optimised blend, from ensemble_oof.csv and
    cv_truth.csv, after checking every OOF file against cv_truth.csv and the
    F1 values of ensemble_metrics.csv. The blend's log-loss is computed
    twice: from ensemble_oof.csv and from the per-model OOF files blended
    with weights.csv."""
    _, truth_rows = read_csv(out_dir / "cv_truth.csv")
    truth_ids = [row[0] for row in truth_rows]
    truth_folds = [int(row[1]) for row in truth_rows]
    truth = np.array([int(row[2]) for row in truth_rows])

    stated = {row[0]: float(row[1])
              for row in read_csv(out_dir / "ensemble_metrics.csv")[1]}
    weights = {row[0]: float(row[1]) for row in read_csv(out_dir / "weights.csv")[1]}
    if sorted(weights) != sorted(model_ids):
        raise CheckError("weights.csv does not name the configured models")

    def checked(name: str, key: str) -> tuple[np.ndarray, float]:
        ids, folds, probs = _oof(out_dir / name)
        if ids != truth_ids or folds != truth_folds:
            raise CheckError(f"{name}: row ids or folds differ from cv_truth.csv")
        f1 = micro_f1(probs, truth)
        if abs(f1 - stated[key]) > F1_TOL:
            raise CheckError(f"{key}: recomputed micro-F1 {f1!r} but "
                             f"ensemble_metrics.csv says {stated[key]!r}")
        return probs, f1

    blended = np.zeros((len(truth), N_CLASSES))
    for model_id in model_ids:
        probs, _ = checked(f"oof_{model_id}.csv", model_id)
        blended += weights[model_id] * probs
    probs, f1 = checked("ensemble_oof.csv", "ensemble_opt")
    loss = log_loss(probs, truth)
    reblended = log_loss(blended, truth)
    if abs(loss - reblended) > LOSS_TOL * max(1.0, loss):
        raise CheckError(f"blend log-loss {loss!r} from ensemble_oof.csv but "
                         f"{reblended!r} from the per-model OOF files")
    return f1, loss


def gain_over_mean(out_dir: Path) -> float:
    """Optimised-blend F1 minus mean-blend F1, as ensemble_metrics.csv states."""
    stated = {row[0]: float(row[1])
              for row in read_csv(out_dir / "ensemble_metrics.csv")[1]}
    return stated["ensemble_opt"] - stated["ensemble_mean"]


def expected_artifacts(stage: str, model_ids: list[str]) -> list[str]:
    """Files each stage must leave in the output directory (default report
    fields; no config in this benchmark changes them)."""
    per_model = {
        "cv": ("oof_{}.csv", "metrics_{}.csv", "confusion_{}.csv"),
        "train": ("stack_{}.json", "model_{}.json"),
    }
    fixed = {
        "ingest": ["observations_clean.csv", "population_long.csv",
                   "ingest_diagnostics.csv"],
        "eda": (["missingness.csv", "correlations.csv"]
                + [f"category_{f}.csv" for f in CATEGORY_FIELDS]
                + [f"trend_{f}.csv" for f in TREND_FIELDS]),
        "features": ["features.csv", "features_stack.json"],
        "cv": ["cv_summary.csv", "cv_truth.csv"],
        "train": ["train_manifest.json"],
        "ensemble": ["weights.csv", "ensemble_metrics.csv", "ensemble_oof.csv"],
        "predict": ["predictions.csv"],
        "report": (["model_comparison.csv", "model_comparison.svg",
                    "missingness.svg", "per_fold_f1.svg"]
                   + [f"category_{f}.svg" for f in CATEGORY_FIELDS]
                   + [f"trend_{f}.svg" for f in TREND_FIELDS]),
    }[stage]
    return fixed + [p.format(m) for p in per_model.get(stage, ()) for m in model_ids]


def check_artifacts(out_dir: Path, stage: str, model_ids: list[str]) -> None:
    missing = [name for name in expected_artifacts(stage, model_ids)
               if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]
    if missing:
        raise CheckError(f"{stage}: missing or empty artifacts: {', '.join(missing)}")
    if (out_dir / ".skyglow.lock").exists():
        raise CheckError(f"{stage}: left its lock file behind")


def hash_dir(path: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
