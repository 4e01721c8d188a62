"""The benchmark's workloads: what each one runs, and why it exists.

Every workload runs the real `skyglow` CLI, one stage at a time, in a
closed loop from one process (the next stage starts when the previous one
has exited), with SKYGLOW_THREADS unset. The program sees only the CSV
files that set-up generates from the benchmark's --seed: a training table,
the census, and a labelled table for `predict` from another synth seed.
Timed, twice or more per run: ingest, eda, features, cv, train, ensemble,
predict, report.

The stage sequence is the user's; the model sizes are not the CLI
defaults. With the defaults, one pass of `fit-2k` takes about 67 s on a
2-core machine (24k GBDT trees in `cv`). The benchmark is budgeted at
about 60 s per run, three repetitions of the timed part included (the
median of three drops one slow repetition; the mean of two cannot), so
each workload keeps its layer balance and cuts rounds, trees and folds.

fit-2k
    The stock synthetic table at 2k rows, scored on 5k fresh rows; the
    default three-model roster (gbdt_full, gbdt_plain, forest) at 20
    rounds / 20 trees and 3 folds.
    Why: the ROADMAP's desk-scale baseline. GBDT fitting is the largest
    share of `cv`, made of many small trees, so per-tree overhead counts
    more than per-node histogram work. Half of all trees are fitted for
    classes 0, 1, 6 and 7, which have no training rows: this workload
    exercises a "skip unsupported classes" optimisation
    (learners.gbdt.unsupported_class_trees > 0). `predict` is the read
    path at 2.5 times the training size: cross_neighbor_means (5k queries
    against the training reference) is most of it, and no fitting happens
    there. The data is separable, so micro-F1 reads 1.0. Which blend
    weights the F1-driven ensemble picks among equally perfect blends
    changes from seed to seed, so the blend's log-loss here follows that
    pick (about 0.04 to 0.1) and is not a quality signal.
    Bypasses: early stopping never fires (kept_ratio 1).

fit-noisy-2k
    Both tables (2k rows each) rewritten by noise.py (parameters at its top)
    so that the class blobs overlap and 20 % of labels are redrawn over
    all 8 classes. Roster: gbdt_full (learning rate 0.3, at most 15
    rounds, 15 leaves, patience 4) plus forest (15 trees), 2 folds.
    Why: quality headroom (OOF micro-F1 about 0.75, log-loss about 1.0),
    so a speed-up that changes model quality shows. Every class has
    training rows, so unsupported_class_trees is 0 and a "skip unsupported
    classes" change must show no effect here. Trees are full-size for
    their leaf limit, so split search and histograms per node dominate
    GBDT time rather than per-tree overhead. Early stopping fires in every
    fold, so kept_ratio < 1. The two models share one StackSpec, so the
    duplicate stack fit in `train` shows.

A third workload, a predict-only run on a 10k-row table with the models
fitted during set-up, was dropped. Its ingest ... train times were single
set-up samples, and over ten seeds their spread reached 0.29 of the median
(more than any allowed bound) while the fit workloads, which repeat every
stage, stayed under 0.1. Repeating its set-up would have overrun the
per-run budget.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("ingest", "eda", "features", "cv", "train", "ensemble", "predict",
          "report")
MINOR_STAGES = ("ingest", "eda", "ensemble", "report")

_DEFAULT_ROSTER = """\
[models]
ids = gbdt_full, gbdt_plain, forest

[model.gbdt_full]
kind = gbdt
rounds = 20

[model.gbdt_plain]
kind = gbdt
rounds = 20
use_text = false
use_neighbor = false

[model.forest]
kind = forest
trees = 20
"""

_NOISY_ROSTER = """\
[models]
ids = gbdt_full, forest

[model.gbdt_full]
kind = gbdt
rounds = 15
learning_rate = 0.3
max_leaves = 15
patience = 4

[model.forest]
kind = forest
trees = 15
"""


@dataclass(frozen=True)
class Workload:
    name: str
    train_rows: int        # rows of the table the models are fitted on
    score_rows: int        # rows of the labelled table `predict` scores
    noisy: bool            # rewrite both tables with noise.py
    cv_folds: int
    roster: str            # [models] and [model.*] sections of the config

    @property
    def model_ids(self) -> list[str]:
        line = next(l for l in self.roster.splitlines() if l.startswith("ids ="))
        return [m.strip() for m in line.split("=", 1)[1].split(",")]

    def config(self) -> str:
        """The run configuration, with paths relative to the run directory
        so that every repetition echoes the same config bytes."""
        return (
            "[data]\n"
            "observations = ../data/observations.csv\n"
            "population = ../data/census.csv\n\n"
            "[output]\ndirectory = out\n\n"
            f"[cv]\nk = {self.cv_folds}\nseed = 7\n\n"
            f"{self.roster}\n"
            "[predict]\nobservations = ../data/score.csv\n")


WORKLOADS = {w.name: w for w in (
    Workload("fit-2k", 2000, 5000, False, 3, _DEFAULT_ROSTER),
    Workload("fit-noisy-2k", 2000, 2000, True, 2, _NOISY_ROSTER),
)}
