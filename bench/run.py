#!/usr/bin/env python3
"""Benchmark of the skyglow command-line pipeline.

Run from the root of a checkout that holds `src/skyglow`:

    python3 bench/run.py --workload fit-2k --seed 1 --seconds 55 --trace 0

Workloads, and why each exists, are in workloads.py; metric names, units
and regression bounds in BENCHMARK.json at the repository root.

--trace 0 runs every stage as its own `python3 -m skyglow.cli.main`
process, exactly as a user would, and reports the end-to-end metrics.
--trace 1 runs the same stages in this process, once untraced and once
with spans wrapped around each layer's public functions (tracing.py), and
reports the per-layer metrics and the tracing overhead.

Times are CPU seconds (user + system) of the process that did the work:
for a stage, its process and the children it waited for, from wait4;
in-process, time.process_time (time.thread_time during set-up). On the
shared 2-vCPU virtual machine this benchmark was tuned on, the hypervisor
steals time from the guest: the wall time of a fixed loop ranged over
0.67-1.79 s within a minute while its CPU time ranged over 0.65-0.83 s.
Every stage is single-threaded (OpenBLAS is held to one thread, see
below), so on an idle dedicated machine CPU time is the wall time a user
waits. The end-to-end times are then scaled to a reference CPU speed:
the CPU's own speed drifts by up to 25 % within seconds, and speed.py
samples it while each stage runs. Unscaled CPU times and wall times are
printed alongside and kept in result.json.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Work
files go to .bench_work/<workload>/ in the checkout, spans of a traced run
to .bench_work/<workload>/spans.jsonl (outside the program's output
directory). The exit code is 0 when every correctness check passed, 1 when
one failed, and 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One OpenBLAS thread here and in every stage process (set before numpy is
# imported). The CLI's matrices are small: with the default thread pool the
# idle BLAS thread spins, adding 10-20 % of CPU time that varies from run
# to run, and wall time did not improve.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402  (bench/ is on sys.path when run as a script)
import noise  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 2  # two repetitions are needed for the byte-identity check
SETUP_REPEATS = 9
MB = 1e6
# ROADMAP re-anchor baseline: full CLI at 2k rows, CLI-default 3-model
# roster (300 rounds / trees, 5 folds), 2 cores, Python 3.11.7.
ROADMAP_BASELINE_S = {"cv": 52.2, "train": 12.3, "predict": 1.7, "features": 1.0}


class StageFailure(Exception):
    """A CLI stage exited non-zero."""


class Tally:
    """Stage invocations attempted. A run stops at its first failed stage
    or check, so the result reports failed as 0 or 1."""

    def __init__(self):
        self.attempted = 0


@contextlib.contextmanager
def checking():
    """A missing or malformed artifact fails the check that reads it."""
    try:
        yield
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        raise checks.CheckError(f"unreadable artifact: {exc!r}") from exc


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SKYGLOW_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(lines[-3:])


def run_stage(stage: str, cwd: Path, tally: Tally,
              probe: speed.SpeedProbe) -> tuple[float, float, float, float]:
    """One CLI stage as its own process: (CPU seconds at the reference
    speed, CPU seconds, wall seconds, peak RSS in MB)."""
    tally.attempted += 1
    log = cwd / f"{stage}.log"
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "skyglow.cli.main", stage, "--config", "run.ini"],
            cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=err,
            stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise StageFailure(f"{stage} exited {proc.returncode}: {log_tail(log)}")
    cpu = usage.ru_utime + usage.ru_stime
    return (cpu * probe.factor(start, end), cpu, end - start,
            usage.ru_maxrss * 1024 / MB)  # ru_maxrss is in KiB


def run_in_process(stage: str, cwd: Path, tally: Tally, config: str = "run.ini",
                   tracer: tracing.Tracer | None = None) -> float:
    """One CLI stage through the entry point, in this process: CPU seconds."""
    from skyglow.cli.main import main as cli_main

    tally.attempted += 1
    log = cwd / f"{stage}.log"
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with open(log, "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
            start = time.process_time()
            if tracer is not None:
                tracer.stage = stage
                span = tracer.begin(tracing.STAGE_SPAN)
            try:
                code = cli_main([stage, "--config", config])
            except Exception as exc:  # a crash is a failed stage, reported below
                code = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end(span)
            seconds = time.process_time() - start
    finally:
        os.chdir(previous)
    if code != 0:
        raise StageFailure(f"{stage} failed ({code}): {log_tail(log)}")
    return seconds


# ------------------------------------------------------------------- set-up

def synth_table(data: Path, name: str, rows: int, seed: int, tally: Tally) -> None:
    ini = data / f"synth_{name}.ini"
    ini.write_text(
        f"[data]\nobservations = {name}.csv\npopulation = census.csv\n\n"
        f"[output]\ndirectory = synth_out_{name}\n\n"
        f"[synth]\nn_rows = {rows}\nseed = {seed}\n", encoding="utf-8")
    run_in_process("synth", data, tally, config=ini.name)


def make_inputs(w: workloads.Workload, seed: int, data: Path, tally: Tally) -> None:
    """Write the workload's training table (observations.csv), census and
    scoring table (score.csv) into `data`. The two tables come from
    distinct synth seeds derived from --seed."""
    data.mkdir(parents=True)
    for name, rows, table_seed in (("observations", w.train_rows, 2 * seed),
                                   ("score", w.score_rows, 2 * seed + 1)):
        if w.noisy:
            synth_table(data, f"{name}_clean", rows, table_seed, tally)
            noise.rewrite_csv(data / f"{name}_clean.csv", data / f"{name}.csv",
                              table_seed)
        else:
            synth_table(data, name, rows, table_seed, tally)


def setup_inputs(w: workloads.Workload, seed: int, work: Path, tally: Tally,
                 repeats: int, probe: speed.SpeedProbe | None = None) -> list[float]:
    """Generate the inputs `repeats` times (CPU seconds of each, at the
    reference speed if a probe is given); all copies must be identical.
    The first copy becomes work/data."""
    import skyglow.cli.main  # noqa: F401  (a one-time import is not set-up work)

    seconds, hashes = [], []
    for rep in range(repeats):
        wall, start = time.perf_counter(), time.thread_time()
        make_inputs(w, seed, work / f"setup_{rep}", tally)
        cpu = time.thread_time() - start
        seconds.append(cpu if probe is None
                       else cpu * probe.factor(wall, time.perf_counter()))
        hashes.append(checks.hash_dir(work / f"setup_{rep}"))
    if len(set(hashes)) != 1:
        raise checks.CheckError("set-up produced different inputs for one seed")
    (work / "setup_0").rename(work / "data")
    for rep in range(1, repeats):
        shutil.rmtree(work / f"setup_{rep}")
    return seconds


def new_run_dir(w: workloads.Workload, path: Path) -> Path:
    path.mkdir()
    (path / "run.ini").write_text(w.config(), encoding="utf-8")
    return path


# ------------------------------------------------------- end-to-end metrics

def measure(w: workloads.Workload, seed: int, seconds: float, work: Path,
            tally: Tally) -> tuple[dict[str, float], dict]:
    ids = w.model_ids
    stage_s: dict[str, list[float]] = {}
    cpu_s: dict[str, list[float]] = {}
    wall_s: dict[str, list[float]] = {}

    with speed.SpeedProbe() as probe:
        setup_s = statistics.median(
            setup_inputs(w, seed, work, tally, SETUP_REPEATS, probe))

        # closed loop: repeat the stage sequence until the next repetition
        # would overrun --seconds, and at least MIN_ITERATIONS times
        iteration_s, peak_rss, hashes = [], [], []
        loop_start = time.perf_counter()
        while True:
            run_dir = new_run_dir(w, work / f"iter_{len(iteration_s)}")
            out_dir = run_dir / "out"
            total, rss = 0.0, 0.0
            for stage in workloads.STAGES:
                ref, cpu, wall, stage_rss = run_stage(stage, run_dir, tally, probe)
                stage_s.setdefault(stage, []).append(ref)
                cpu_s.setdefault(stage, []).append(cpu)
                wall_s.setdefault(stage, []).append(wall)
                with checking():
                    checks.check_artifacts(out_dir, stage, ids)
                total += ref
                rss = max(rss, stage_rss)
            iteration_s.append(total)
            peak_rss.append(rss)
            hashes.append(checks.hash_dir(out_dir))
            elapsed = time.perf_counter() - loop_start
            if (len(iteration_s) >= MIN_ITERATIONS
                    and elapsed + elapsed / len(iteration_s) > seconds):
                break

    with checking():
        if len(set(hashes)) != 1:
            raise checks.CheckError(
                "repetitions of one workload and seed gave different output "
                "directories")
        oof_f1, oof_loss = checks.oof_quality(out_dir, ids)
        holdout_f1, holdout_loss = checks.holdout_quality(
            out_dir, work / "data" / "score.csv")

    stage_median = {stage: statistics.median(v) for stage, v in stage_s.items()}
    metrics = {
        "setup_s": setup_s,
        "pipeline_s": statistics.median(iteration_s),
        "features_s": stage_median["features"],
        "cv_s": stage_median["cv"],
        "train_s": stage_median["train"],
        "predict_s": stage_median["predict"],
        "minor_stages_s": sum(stage_median[s] for s in workloads.MINOR_STAGES),
        "peak_rss_mb": statistics.median(peak_rss),
        "output_mb": checks.dir_bytes(out_dir) / MB,
        "oof_micro_f1": oof_f1,
        "oof_log_loss": oof_loss,
        "holdout_micro_f1": holdout_f1,
        "holdout_log_loss": holdout_loss,
    }
    wall_median = {stage: statistics.median(v) for stage, v in wall_s.items()}
    cpu_median = {stage: statistics.median(v) for stage, v in cpu_s.items()}
    print("# wall time, median s: " + ", ".join(
        f"{stage} {t:.2f}" for stage, t in wall_median.items()))
    print("# CPU time before scaling to the reference speed, median s: "
          + ", ".join(f"{stage} {t:.2f}" for stage, t in cpu_median.items()))
    detail = {"iterations": len(iteration_s), "stage_ref_s": stage_s,
              "stage_cpu_s": cpu_s, "stage_wall_s": wall_s,
              "output_sha256": hashes[0]}
    return metrics, detail


# -------------------------------------------------------- per-layer metrics

def in_process_pass(w: workloads.Workload, path: Path, tally: Tally,
                    tracer: tracing.Tracer | None = None) -> dict[str, float]:
    run_dir = new_run_dir(w, path)
    stage_s = {}
    for stage in workloads.STAGES:
        stage_s[stage] = run_in_process(stage, run_dir, tally, tracer=tracer)
        with checking():
            checks.check_artifacts(run_dir / "out", stage, w.model_ids)
    return stage_s


def traced(w: workloads.Workload, seed: int, work: Path,
           tally: Tally) -> tuple[dict[str, float], dict]:
    """One untraced and one traced in-process pass over every stage; both
    must leave the same bytes. The tracing overhead is the calibrated cost
    of one wrapped call times the number of spans (see README.md)."""
    setup_inputs(w, seed, work, tally, 1)
    plain = in_process_pass(w, work / "plain", tally)
    tracer = tracing.Tracer(w.name)
    tracer.install()
    try:
        with_spans = in_process_pass(w, work / "traced", tally, tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(work / "spans.jsonl")
    spans = tracer.spans

    out_dir = work / "traced" / "out"
    with checking():
        if checks.hash_dir(work / "plain" / "out") != checks.hash_dir(out_dir):
            raise checks.CheckError("tracing changed the output directory")
        _, oof_loss = checks.oof_quality(out_dir, w.model_ids)
        _, holdout_loss = checks.holdout_quality(out_dir, work / "data" / "score.csv")

    per_span = tracing.wrapper_cost()
    metrics = tracing.layer_metrics(spans)
    metrics["ensemble.gain_over_mean"] = checks.gain_over_mean(out_dir)
    metrics["quality.oof_log_loss"] = oof_loss
    metrics["quality.holdout_log_loss"] = holdout_loss
    metrics["trace.overhead.pipeline_s"] = per_span * len(spans)
    metrics["trace.overhead.predict_s"] = per_span * sum(
        1 for s in spans if s.stage == "predict")

    for stage in ("cv", "predict"):
        top = ", ".join(f"{name} {share:.0%}"
                        for name, share in tracing.stage_shares(spans, stage)[:3])
        print(f"# share of traced {stage}: {top}")
    return metrics, {"untraced_stage_s": plain, "traced_stage_s": with_spans,
                     "spans": len(spans), "wrapper_cost_s": per_span}


# --------------------------------------------------------------------- main

def machine() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "skyglow" / "__init__.py").is_file():
        print(f"bench: no skyglow source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    os.environ.pop("SKYGLOW_THREADS", None)
    import skyglow
    if Path(skyglow.__file__).resolve().parent != (SRC / "skyglow").resolve():
        print(f"bench: imported skyglow from {skyglow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = machine()
    print(f"# {w.name} seed {args.seed} trace {args.trace} on {host['cores']} cores, "
          f"{host['cpu']}, Python {host['python']}, numpy {host['numpy']}, "
          f"scipy {host['scipy']}")

    tally = Tally()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values, detail = traced(w, args.seed, work, tally)
        else:
            values, detail = measure(w, args.seed, args.seconds, work, tally)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        correct = True
    except (StageFailure, checks.CheckError) as exc:
        print(f"# FAILED: {exc}")
        values, metrics, correct = {}, {}, False
        detail = {"error": str(exc)}

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']!r:>24} {m['unit']}")
    extra = {name: values[name] for name in sorted(set(values) - set(metrics))}
    for name, value in extra.items():
        print(f"# also {name} {value!r}")
    failed = 0 if correct else 1
    print(f"# stage_failure_rate {failed}/{tally.attempted}")
    if correct and not args.trace and w.name == "fit-2k":
        for stage, base in ROADMAP_BASELINE_S.items():
            print(f"# {stage}: {metrics[stage + '_s']['value']:.2f} CPU s at the "
                  f"reference speed here "
                  f"(reduced model sizes, see workloads.py); ROADMAP baseline "
                  f"{base} s wall")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": w.name, "seed": args.seed, "trace": args.trace,
         "machine": host, "also": extra, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
