"""In-memory span tracing around skyglow's public functions, installed from
outside the program, and the per-layer metrics derived from the spans.

Callers bind library names when they import them, so each name is wrapped
where its caller looks it up (`skyglow.validation.fit_gbdt` and
`skyglow.cli.commands.fit_gbdt` are two targets of one span name). Three
public methods are wrapped on their classes. Spans nest by call order: the
tracer keeps a stack of open spans, which holds because the CLI runs one
stage at a time on one thread when SKYGLOW_THREADS is unset.

Span times are CPU seconds of this process. Busy time of a name is the
summed duration of its outermost spans; self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time as clock  # CPU time; see run.py


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    stage: str
    workload: str
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "rows"))}


def _row_visits(args, kwargs, result):
    return {"row_visits": len(_arg(args, kwargs, 1, "X"))}


def _table_rows(args, kwargs, result):
    return {"rows": len(result[0])}


def _fitted_rounds(model) -> int:
    for note in model.diagnostics:
        if note.startswith("early stop after round "):
            return int(note.split()[4].rstrip(",")) + 1
    return len(model.trees)


def _gbdt_counts(args, kwargs, model):
    y = _arg(args, kwargs, 1, "y")
    fitted = _fitted_rounds(model)
    supported = len(set(int(v) for v in y))
    return {
        "trees_fitted": fitted * model.n_classes,
        "trees_kept": len(model.trees) * model.n_classes,
        "nodes": sum(len(tree.feature) for round_trees in model.trees
                     for tree in round_trees),
        "unsupported_class_trees": fitted * (model.n_classes - supported),
    }


def _forest_counts(args, kwargs, model):
    return {"nodes": sum(len(tree.feature) for tree in model.trees)}


def _oof_pairs(args, kwargs, result):
    return {"pairs": len(_arg(args, kwargs, 0, "index").points) ** 2}


def _cross_pairs(args, kwargs, result):
    return {"pairs": len(_arg(args, kwargs, 0, "ref_points"))
            * len(_arg(args, kwargs, 2, "query_points"))}


def _docs(position: int, name: str):
    def count(args, kwargs, result):
        return {"docs": len(_arg(args, kwargs, position, name))}
    return count


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _folds(args, kwargs, result):
    return {"folds": result.k}


_CMD = "skyglow.cli.commands"
_VAL = "skyglow.validation"
_STACK = "skyglow.features.stack"

# (module where the caller looks the name up, attribute, span name, counter).
# Only names that a per-layer metric reads are wrapped; the time of every
# other call a command makes (CSV reading and writing, EDA summaries, blend
# arithmetic) counts as the stage's own time, cli.stage_self_s.
TARGETS = (
    (_CMD, "parse_observations", "dataset.parse_observations", _table_rows),
    (_CMD, "derived_numeric_columns", "features.pipeline.derived_numeric_columns", None),
    (_CMD, "target_classes", "features.pipeline.target_classes", None),
    (_CMD, "fit_stack", "features.stack.fit_stack", None),
    (_CMD, "apply_stack", "features.stack.apply_stack", None),
    (_CMD, "fit_gbdt", "learners.gbdt.fit", _gbdt_counts),
    (_CMD, "fit_forest", "learners.forest.fit", _forest_counts),
    (_CMD, "predict_proba_forest", "learners.forest.predict_proba", None),
    (_CMD, "save_json", "serialize.save_json", _file_bytes),
    (_CMD, "load_json", "serialize.load_json", _file_bytes),
    (_CMD, "stack_to_obj", "serialize.to_obj", None),
    (_CMD, "learner_to_obj", "serialize.to_obj", None),
    (_CMD, "stack_from_obj", "serialize.from_obj", None),
    (_CMD, "learner_from_obj", "serialize.from_obj", None),
    (_CMD, "run_cv", "validation.run_cv", _folds),
    (_CMD, "optimize_weights", "ensemble.optimize_weights", None),
    (_CMD, "bar_chart_svg", "cli.svg.bar_chart_svg", None),
    (_CMD, "line_chart_svg", "cli.svg.line_chart_svg", None),
    (_CMD, "write_svg", "cli.svg.write_svg", None),
    (_VAL, "target_classes", "features.pipeline.target_classes", None),
    (_VAL, "fit_stack", "features.stack.fit_stack", None),
    (_VAL, "fit_gbdt", "learners.gbdt.fit", _gbdt_counts),
    (_VAL, "fit_forest", "learners.forest.fit", _forest_counts),
    (_VAL, "predict_proba_forest", "learners.forest.predict_proba", None),
    (_STACK, "fit_feature_pipeline", "features.pipeline.fit", None),
    (_STACK, "apply_feature_pipeline", "features.pipeline.apply", None),
    (_STACK, "build_neighbor_index", "features.pipeline.build_neighbor_index", None),
    (_STACK, "neighbor_points", "features.pipeline.neighbor_points", None),
    (_STACK, "fit_text_features", "textfeat.fit", _docs(0, "texts")),
    (_STACK, "transform_text_features", "textfeat.transform", _docs(1, "texts")),
    (_STACK, "neighbor_mean_features", "features.neighbors.oof", _oof_pairs),
    (_STACK, "cross_neighbor_means", "features.neighbors.cross", _cross_pairs),
    ("skyglow.learners.gbdt", "bin_matrix", "learners.binning.bin_matrix", None),
    ("skyglow.learners.forest", "bin_matrix", "learners.binning.bin_matrix", None),
    ("skyglow.learners.binning", "BinnedMatrix.histogram",
     "learners.binning.histogram", _rows),
    ("skyglow.learners.gbdt", "RegressionTree.predict",
     "learners.gbdt.tree_predict", _row_visits),
    ("skyglow.learners.forest", "ClassificationTree.predict_proba",
     "learners.forest.tree_predict", None),
)

STAGE_SPAN = "cli.stage"


class Tracer:
    """Collects spans in memory; `install` patches TARGETS, `uninstall`
    restores the originals."""

    def __init__(self, workload: str):
        self.workload = workload
        self.stage = ""
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = clock()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, clock(), 0.0, parent,
                               self.stage, self.workload))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self.spans[index].counts.update(counter(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        for module_name, attribute, name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    "stage": s.stage, "workload": s.workload,
                    "counts": s.counts}) + "\n")


CALIBRATION_CALLS = 100_000
CALIBRATION_ROUNDS = 5


def wrapper_cost() -> float:
    """CPU seconds that tracing adds to one call: a no-op called
    CALIBRATION_CALLS times with and without a wrapper and a counter, per
    call, median of CALIBRATION_ROUNDS. A difference of traced and
    untraced stage times cannot resolve it: the spans of a pass cost a few
    hundredths of a second, while pass times vary by tenths."""
    def noop(x):
        return x

    tracer = Tracer("calibration")
    wrapped = tracer.wrap(noop, "noop", lambda args, kwargs, result: {"rows": 1})
    per_call = []
    for _ in range(CALIBRATION_ROUNDS):
        t0 = clock()
        for _ in range(CALIBRATION_CALLS):
            noop(0)
        t1 = clock()
        for _ in range(CALIBRATION_CALLS):
            wrapped(0)
        t2 = clock()
        tracer.spans.clear()
        per_call.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
    return statistics.median(per_call)


# ------------------------------------------------------------ span arithmetic

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _matches(name: str, key: str) -> bool:
    return name == key or (key.endswith(".") and name.startswith(key))


def outermost(spans: list[Span], key: str, stage: str | None = None) -> list[int]:
    """Spans matching `key` (an exact name, or a prefix ending in '.') with
    no matching ancestor, so nested calls are not counted twice; only those
    of `stage` if it is given."""
    picked = []
    for i, s in enumerate(spans):
        if not _matches(s.name, key) or stage not in (None, s.stage):
            continue
        p = s.parent
        while p >= 0 and not _matches(spans[p].name, key):
            p = spans[p].parent
        if p < 0:
            picked.append(i)
    return picked


def busy(spans: list[Span], key: str, stage: str | None = None) -> float:
    return sum(spans[i].duration for i in outermost(spans, key, stage))


def self_total(spans: list[Span], name: str, selfs: list[float]) -> float:
    return sum(t for s, t in zip(spans, selfs) if s.name == name)


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def count(spans: list[Span], name: str, key: str) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric that comes from spans alone."""
    selfs = self_times(spans)
    fitted = count(spans, "learners.gbdt.fit", "trees_fitted")
    kept = count(spans, "learners.gbdt.fit", "trees_kept")
    return {
        "learners.binning.histogram.calls": calls(spans, "learners.binning.histogram"),
        "learners.binning.histogram.busy_s": busy(spans, "learners.binning.histogram"),
        "learners.binning.histogram.rows": count(spans, "learners.binning.histogram", "rows"),
        "learners.binning.bin_matrix.busy_s": busy(spans, "learners.binning.bin_matrix"),
        "learners.gbdt.fit.calls": calls(spans, "learners.gbdt.fit"),
        "learners.gbdt.fit.busy_s": busy(spans, "learners.gbdt.fit"),
        "learners.gbdt.fit.self_s": self_total(spans, "learners.gbdt.fit", selfs),
        "learners.gbdt.fit.trees_fitted": fitted,
        "learners.gbdt.fit.trees_kept": kept,
        "learners.gbdt.fit.kept_ratio": kept / fitted if fitted else 1.0,
        "learners.gbdt.fit.nodes": count(spans, "learners.gbdt.fit", "nodes"),
        "learners.gbdt.unsupported_class_trees":
            count(spans, "learners.gbdt.fit", "unsupported_class_trees"),
        "learners.gbdt.tree_predict.calls": calls(spans, "learners.gbdt.tree_predict"),
        "learners.gbdt.tree_predict.busy_s": busy(spans, "learners.gbdt.tree_predict"),
        "learners.gbdt.tree_predict.row_visits":
            count(spans, "learners.gbdt.tree_predict", "row_visits"),
        "learners.forest.fit.busy_s": busy(spans, "learners.forest.fit"),
        "learners.forest.fit.nodes": count(spans, "learners.forest.fit", "nodes"),
        "learners.forest.predict_proba.busy_s":
            busy(spans, "learners.forest.predict_proba"),
        "learners.forest.tree_predict.busy_s": busy(spans, "learners.forest.tree_predict"),
        "features.neighbors.oof.busy_s": busy(spans, "features.neighbors.oof"),
        "features.neighbors.oof.pairs": count(spans, "features.neighbors.oof", "pairs"),
        "features.neighbors.cross.busy_s": busy(spans, "features.neighbors.cross"),
        "features.neighbors.cross.pairs": count(spans, "features.neighbors.cross", "pairs"),
        "features.stack.fit_stack.calls": calls(spans, "features.stack.fit_stack"),
        "features.stack.fit_stack.self_s":
            self_total(spans, "features.stack.fit_stack", selfs),
        "features.stack.apply_stack.self_s":
            self_total(spans, "features.stack.apply_stack", selfs),
        "textfeat.fit.busy_s": busy(spans, "textfeat.fit"),
        "textfeat.transform.busy_s": busy(spans, "textfeat.transform"),
        "textfeat.docs": (count(spans, "textfeat.fit", "docs")
                          + count(spans, "textfeat.transform", "docs")),
        "features.pipeline.busy_s": busy(spans, "features.pipeline."),
        "dataset.parse_observations.busy_s": busy(spans, "dataset.parse_observations"),
        "dataset.parse_observations.rows":
            count(spans, "dataset.parse_observations", "rows"),
        "serialize.save_json.busy_s": busy(spans, "serialize.save_json"),
        "serialize.save_json.bytes": count(spans, "serialize.save_json", "bytes"),
        "serialize.load_json.busy_s": busy(spans, "serialize.load_json"),
        "serialize.load_json.bytes": count(spans, "serialize.load_json", "bytes"),
        "serialize.to_obj.busy_s": busy(spans, "serialize.to_obj"),
        "serialize.from_obj.busy_s": busy(spans, "serialize.from_obj"),
        "validation.run_cv.self_s": self_total(spans, "validation.run_cv", selfs),
        "validation.folds": count(spans, "validation.run_cv", "folds"),
        "ensemble.optimize_weights.busy_s": busy(spans, "ensemble.optimize_weights"),
        "cli.stage_self_s": self_total(spans, STAGE_SPAN, selfs),
        "cli.svg.busy_s": busy(spans, "cli.svg."),
    }


# Span names of the layers' largest kernels, for the per-stage shares that
# confirm each workload's layer balance.
KERNELS = ("learners.gbdt.fit", "learners.forest.fit", "learners.gbdt.tree_predict",
           "learners.forest.predict_proba", "features.neighbors.oof",
           "features.neighbors.cross", "textfeat.fit", "textfeat.transform",
           "dataset.parse_observations", "serialize.load_json", "serialize.save_json")


def stage_shares(spans: list[Span], stage: str) -> list[tuple[str, float]]:
    """[(kernel, busy time / stage time)] within one stage, largest first.
    A kernel's share includes the kernels it calls."""
    total = busy(spans, STAGE_SPAN, stage)
    shares = [(name, busy(spans, name, stage) / total) for name in KERNELS]
    return sorted(shares, key=lambda kv: -kv[1])
