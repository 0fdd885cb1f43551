"""Benchmark entry point.

    python3 perfbench/run.py --workload fit_binary --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. One process, one caller, operations one after another (a closed
loop). The run sets up its inputs from the seed several times and reports
the median set-up time, then repeats passes over the same inputs for about
``--seconds`` and reports medians over passes. Throughout, a probe on a
timer samples the host's speed (``hostprobe.py``), and every step's time is
scaled by the speed sampled during that step to seconds of a host that runs
the probe at reference speed, so that the host's changing speed cancels out.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones, plus the tracing overhead. The last line of standard output is the result object; the line
before it holds the run metadata. Both, with every pass's figures and the
folded spans, are also written to ``perfbench/out/``.

Exits 1 when any check fails, and without a result when the package cannot
be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: with a pool as large as the cores, every product waits on
# whichever core another tenant of the host holds. Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import crossmodal  # noqa: E402,F401  - no package, no result
import hostprobe  # noqa: E402
import meta  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, StageFailed  # noqa: E402

SETUPS = 5        # set-ups per run, spread over it; setup_s is their median
MIN_PASSES = 3    # per kind (untraced, traced) of pass
REFERENCES = HERE / "references.json"
OUT = HERE / "out"

# How far a run's quality may sit from the reference recorded for its seed.
# The objective may be lower (a better solver) but not higher.
OBJECTIVE_RTOL = 1e-6
ERROR_ATOL = 0.01
AUC_ATOL = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "score_imgs_per_s": "images/s",
    "test_auc": "fraction",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_reference(workload, seed):
    with open(REFERENCES) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def reference_failures(workload, result, ref):
    """Quality of the first pass against the reference recorded for the seed."""
    stage = workload.STAGE_OF
    failures = []
    if result.final_objective > ref["final_objective"] + OBJECTIVE_RTOL * abs(ref["final_objective"]):
        failures.append((stage["final_objective"], f"final_objective {result.final_objective!r} "
                                                   f"above reference {ref['final_objective']!r}"))
    if abs(result.test_error - ref["test_error"]) > ERROR_ATOL:
        failures.append((stage["test_error"], f"test_error {result.test_error!r} "
                                              f"vs reference {ref['test_error']!r}"))
    if abs(result.test_auc - ref["test_auc"]) > AUC_ATOL:
        failures.append((stage["test_auc"], f"test_auc {result.test_auc!r} "
                                            f"vs reference {ref['test_auc']!r}"))
    if result.selection is not None and list(result.selection) != ref["selection"]:
        failures.append((stage["selection"], f"selected {list(result.selection)} "
                                             f"vs reference {ref['selection']}"))
    return failures


def floor_failures(workload, result):
    """For a seed without a reference: quality a working model always reaches."""
    if result.test_auc < workload.AUC_FLOOR:
        return [(workload.STAGE_OF["test_auc"],
                 f"test_auc {result.test_auc!r} below {workload.AUC_FLOOR}")]
    return []


class Run:
    def __init__(self, args, workload):
        self.args = args
        self.workload = workload
        self.tracer = tracing.Tracer() if args.trace else None
        self.failed = set()      # (pass index, stage)
        self.messages = []
        self.attempted = 0
        self.setups = []         # (start, end) of each set-up
        self.synth_self = []     # traced: synth.generate self seconds per set-up
        self.probe = hostprobe.HostProbe()
        self.reference = None

    def scaled(self, window):
        """Reference seconds of the step timed over `window`."""
        return self.probe.scaled(*window)

    def factor(self, window):
        """Reference over measured seconds for a step that probes interrupted,
        such as a traced pass whose spans include the probes."""
        return self.scaled(window) / (window[1] - window[0])

    def fail(self, index, stage, message):
        self.failed.add((index, stage))
        self.messages.append(f"pass {index} {stage}: {message}")

    def setup(self, workdir):
        """Make the inputs from the seed again; every set-up gives the same."""
        start = time.perf_counter()
        if self.tracer:
            self.tracer.reset()
            with self.tracer:
                self.workload.setup(self.args.seed, str(workdir))
        else:
            self.workload.setup(self.args.seed, str(workdir))
        self.reference = load_reference(self.workload.name, self.args.seed)
        self.setups.append((start, time.perf_counter()))
        if self.tracer:
            self.synth_self.append(self.tracer.spans["synth.generate"][2])

    def one_pass(self, index, traced):
        snapshot = None
        try:
            if traced:
                self.tracer.reset()
                with self.tracer:
                    result = self.workload.run_pass()
                snapshot = self.tracer.snapshot()
            else:
                result = self.workload.run_pass()
        except StageFailed as exc:
            self.attempted += 1
            self.fail(index, exc.stage, str(exc))
            return None, None
        self.attempted += len(result.stages)
        try:
            failures = self.workload.check(result)
        except Exception as exc:  # a malformed output breaks its check
            failures = [(next(iter(result.stages)), f"check raised {exc!r}")]
        for stage, message in failures:
            self.fail(index, stage, message)
        return result, snapshot

    def passes(self, workdir):
        """Passes until --seconds are spent; in trace mode untraced and traced
        alternate. Set-ups are spread over the run, as contention on the host
        comes and goes in phases of seconds."""
        plain, traced, snapshots = [], [], []
        self.probe.start()
        try:
            start = time.perf_counter()
            index = 0
            while True:
                elapsed = time.perf_counter() - start
                if len(self.setups) < min(SETUPS, 1 + elapsed * SETUPS / self.args.seconds):
                    self.setup(workdir)
                is_traced = bool(self.tracer) and index % 2 == 1
                result, snapshot = self.one_pass(index, is_traced)
                if result is None:
                    break
                (traced if is_traced else plain).append(result)
                if snapshot is not None:
                    snapshots.append(snapshot)
                index += 1
                kinds = [plain, traced] if self.tracer else [plain]
                if all(len(k) >= MIN_PASSES for k in kinds):
                    elapsed = time.perf_counter() - start
                    if elapsed + elapsed / index > self.args.seconds:
                        break
        finally:
            self.probe.stop()
        return plain, traced, snapshots

    def check_run(self, results):
        first = results[0]
        for i, r in enumerate(results[1:], start=1):
            if r.fingerprint != first.fingerprint:
                self.fail(i, self.workload.STAGE_OF["final_objective"],
                          f"output {r.fingerprint} differs from the first pass's "
                          f"{first.fingerprint}")
        if self.reference is not None:
            found = reference_failures(self.workload, first, self.reference)
        else:
            found = floor_failures(self.workload, first)
        for stage, message in found:
            self.fail(0, stage, message)


def stage_s(run, result, names):
    """Reference seconds of the named stages of one pass."""
    return sum(run.scaled(result.windows[name]) for name in names)


def pass_window(result):
    windows = list(result.windows.values())
    return windows[0][0], windows[-1][1]


def pipeline_s(run, results):
    return median(stage_s(run, r, r.windows) for r in results)


def end_to_end(run, results):
    first, w = results[0], run.workload
    values = {
        "setup_s": median(run.scaled(window) for window in run.setups),
        "pipeline_s": pipeline_s(run, results),
        "train_s": median(stage_s(run, r, w.TRAIN_STAGES) for r in results),
        "score_imgs_per_s": first.images_scored
        / median(stage_s(run, r, (w.SCORE_STAGE,)) for r in results),
        "test_auc": first.test_auc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run, plain, traced, snapshots):
    per_pass = [tracing.layer_metrics(s) for s in snapshots]
    metrics = {}
    factors = [run.factor(pass_window(r)) for r in traced]
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = median(p[name][0] * f for p, f in zip(per_pass, factors))
        elif any(p[name][0] != value for p in per_pass):
            run.fail(0, "trace", f"count {name} differs between traced passes")
        metrics[name] = {"value": value, "unit": unit}
    metrics["synth.generate.self_s"] = {
        "value": median(s * run.factor(w) for s, w in zip(run.synth_self, run.setups)),
        "unit": "s"}
    # Quality varies too much between seeds to bound; the checks hold it.
    metrics["solver.final_objective"] = {"value": traced[0].final_objective, "unit": "objective"}
    metrics["evaluation.test_error"] = {"value": traced[0].test_error, "unit": "fraction"}
    metrics["trace.overhead_s"] = {
        "value": pipeline_s(run, traced) - pipeline_s(run, plain),
        "unit": "s",
    }
    return metrics


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    run = Run(args, workload)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced, snapshots = run.passes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if plain and (traced or not args.trace):
        run.check_run(plain + traced)
        metrics = per_layer(run, plain, traced, snapshots) if args.trace else end_to_end(run, plain)
    probes = run.probe.durations
    run_meta = meta.collect(ROOT, args, passes={"untraced": len(plain), "traced": len(traced)},
                            probes=len(probes), probe_s=median(probes) if probes else None,
                            reference_probe_s=hostprobe.REFERENCE_S)
    result = {
        "correct": not run.failed,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failed),
        "metrics": metrics,
    }
    record = {
        "meta": run_meta,
        "result": result,
        "failures": run.messages,
        "reference": run.reference,
        "passes": [{"traced": kind, "stages": r.stages,
                    "scaled": {name: run.scaled(w) for name, w in r.windows.items()}}
                   for kind, results in ((False, plain), (True, traced)) for r in results],
        "setup_s": [end - start for start, end in run.setups],
        "setup_scaled_s": [run.scaled(w) for w in run.setups],
        "probe_s": probes,
        "spans": snapshots,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for message in run.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"meta": run_meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
