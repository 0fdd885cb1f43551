"""One traced fit of the ROADMAP baseline: default synth config, seed 0,
default hyperparameters, run to tol 1e-6.

    python3 perfbench/baseline.py

Prints iterations, SVDs and smooth-objective evaluations per iteration (the
ROADMAP figures are 109, 3.24 and 7.34) and the wall time of the untraced and
the traced fit. Unlike the workloads this fit runs to tol, so its counts show
how many iterations a solver change saves.
"""
from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
sys.path.insert(0, str(ROOT / "src"))

import crossmodal as cm  # noqa: E402
import tracing  # noqa: E402


def main():
    ds = cm.generate(cm.SynthConfig(seed=0))
    data = cm.TrainData(ds.texts, ds.images, ds.pairs)
    hyper = cm.Hyperparameters()

    start = time.perf_counter()
    _, report = cm.train(data, hyper)
    untraced_s = time.perf_counter() - start

    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer:
        _, traced_report = cm.train(data, hyper)
    traced_s = time.perf_counter() - start
    if traced_report.objective_trace != report.objective_trace:
        raise SystemExit("the traced fit took a different path from the untraced one")

    layers = tracing.layer_metrics(tracer.snapshot())
    print(json.dumps({
        "iterations": report.iterations,
        "converged": report.converged,
        "final_objective": report.final_objective,
        "svd_per_iter": layers["linalg.svd.per_iter"][0],
        "smooth_evals_per_iter": layers["losses.smooth_evals.per_iter"][0],
        "s_step_accept_ratio": layers["solver.s_step.accept_ratio"][0],
        "train_s": untraced_s,
        "traced_train_s": traced_s,
    }))


if __name__ == "__main__":
    main()
