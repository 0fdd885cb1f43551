"""The three benchmark workloads.

Each workload makes its inputs from the seed in `setup`; `run_pass` drives
the package's public entry points once, timing each stage, and `check`
compares every output with the oracles in `oracles.py`. Checks run outside
the timed stages and outside any trace. A run repeats passes on the same
inputs, so every pass must give identical outputs.

Every fit runs a fixed budget of solver iterations: `tol` is set far below
any relative decrease reached within the budget. Iterations to tol 1e-6 vary
threefold between seeds, which would make every time metric measure the seed
rather than the code; `baseline.py` measures iterations to tol on the ROADMAP
configuration instead.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import crossmodal as cm
from crossmodal import cli, data_io, zeroshot

import oracles

# A tol no fit reaches within its iteration budget, so every fit runs it all.
BUDGET_TOL = 1e-12


@dataclass
class PassResult:
    windows: dict           # stage name -> (start, end) perf_counter, in run order
    images_scored: int
    final_objective: float
    test_error: float
    test_auc: float
    selection: tuple | None = None
    outputs: dict = field(default_factory=dict, repr=False)  # for check()

    @property
    def stages(self):
        """Stage name -> measured seconds."""
        return {name: end - start for name, (start, end) in self.windows.items()}

    @property
    def fingerprint(self):
        return (self.final_objective, self.test_error, self.test_auc, self.selection)


class StageFailed(Exception):
    """A stage raised or returned an error instead of an output."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


def _timed(windows, name, fn, *args):
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        raise StageFailed(name, f"raised {exc!r}") from exc
    windows[name] = (start, time.perf_counter())
    return result


def _check_fit(failures, stage, report, model, data, hyper):
    rise = oracles.descent_violation(report.objective_trace)
    if rise > oracles.DESCENT_SLACK:
        failures.append((stage, f"objective rose by {rise:.3e} in one iteration"))
    if report.final_objective != report.objective_trace[-1]:
        failures.append((stage, "final_objective is not the last traced objective"))
    recomputed = oracles.binary_objective(model, data, hyper)
    if not oracles.close(report.final_objective, recomputed):
        failures.append((stage, f"reported objective {report.final_objective!r} "
                                f"but the model's S, alpha give {recomputed!r}"))


def _check_scores(failures, stage, ev, model, test_images):
    scores = oracles.binary_scores(model, test_images)
    error, auc = oracles.binary_metrics(scores, test_images)
    if ev.error_rate != error or not oracles.close(ev.auc, auc):
        failures.append((stage, f"evaluate_model gave error {ev.error_rate!r} auc {ev.auc!r}; "
                                f"batched recomputation gives {error!r} {auc!r}"))


class FitBinary:
    """Library train on a medium binary problem, then evaluate_model."""

    name = "fit_binary"
    TRAIN_STAGES, SCORE_STAGE = ("train",), "evaluate_model"
    ITERATIONS = 20
    AUC_FLOOR = 0.8
    STAGE_OF = {"final_objective": "train", "test_error": "evaluate_model",
                "test_auc": "evaluate_model"}

    def setup(self, seed, workdir):
        ds = cm.generate(cm.SynthConfig(
            p=100, q=80, r_true=8, n_texts=500, m_images=150, l_pairs=5000,
            n_test=500, seed=seed,
        ))
        self.data = cm.TrainData(ds.texts, ds.images, ds.pairs)
        self.test = ds.test_images
        self.hyper = cm.Hyperparameters(
            gamma=1.0, lam=1.0, C=1.0, max_iter=self.ITERATIONS, tol=BUDGET_TOL
        )

    def run_pass(self) -> PassResult:
        windows = {}
        model, report = _timed(windows, "train", cm.train, self.data, self.hyper)
        ev = _timed(windows, "evaluate_model", cm.evaluate_model, model, self.test)
        return PassResult(windows, len(self.test), report.final_objective, ev.error_rate, ev.auc,
                          outputs={"model": model, "report": report, "ev": ev})

    def check(self, result) -> list:
        out, failures = result.outputs, []
        _check_fit(failures, "train", out["report"], out["model"], self.data, self.hyper)
        _check_scores(failures, "evaluate_model", out["ev"], out["model"], self.test)
        return failures


class CrossvalGrid:
    """crossval_select over a 2x2x2 sub-grid of DEFAULT_GRID (16 cold-start
    fits), a refit at the selected point, then evaluate_model."""

    name = "crossval_grid"
    # Training here is model selection: the crossval fits plus the refit.
    TRAIN_STAGES, SCORE_STAGE = ("crossval_select", "train"), "evaluate_model"
    ITERATIONS = 20
    AUC_FLOOR = 0.8
    STAGE_OF = {"final_objective": "train", "test_error": "evaluate_model",
                "test_auc": "evaluate_model", "selection": "crossval_select"}
    GRID = {"lam": (0.5, 2.0), "gamma": (0.1, 1.0), "C": (1.0, 10.0)}

    def setup(self, seed, workdir):
        ds = cm.generate(cm.SynthConfig(n_test=1000, seed=seed))
        self.seed = seed
        self.data = cm.TrainData(ds.texts, ds.images, ds.pairs)
        self.test = ds.test_images
        self.base = cm.Hyperparameters(max_iter=self.ITERATIONS, tol=BUDGET_TOL)

    def run_pass(self) -> PassResult:
        windows = {}
        best = _timed(windows, "crossval_select", cm.crossval_select,
                      self.data, self.base, self.GRID, self.seed)
        model, report = _timed(windows, "train", cm.train, self.data, best)
        ev = _timed(windows, "evaluate_model", cm.evaluate_model, model, self.test)
        return PassResult(windows, len(self.test), report.final_objective, ev.error_rate, ev.auc,
                          selection=(best.lam, best.gamma, best.C),
                          outputs={"model": model, "report": report, "ev": ev, "best": best})

    def check(self, result) -> list:
        out, failures = result.outputs, []
        keys = ("lam", "gamma", "C")
        if any(v not in self.GRID[k] for k, v in zip(keys, result.selection)):
            failures.append(("crossval_select", f"selection {result.selection} is off the grid"))
        _check_fit(failures, "train", out["report"], out["model"], self.data, out["best"])
        _check_scores(failures, "evaluate_model", out["ev"], out["model"], self.test)
        return failures


class ZeroshotCli:
    """crossmodal zeroshot, predict and evaluate, run in-process through
    cli.main on JSONL files: 5 classes, 2 of them unseen."""

    name = "zeroshot_cli"
    TRAIN_STAGES, SCORE_STAGE = ("zeroshot",), "predict"
    ITERATIONS = 100
    AUC_FLOOR = 0.55
    STAGE_OF = {"final_objective": "zeroshot", "test_error": "evaluate",
                "test_auc": "evaluate"}
    UNSEEN = ("c3", "c4")

    def __init__(self):
        self.reports = []
        _capture_reports(self.reports)

    # Examples kept per class, so that every seed gives inputs of one size.
    # The generator guarantees each class half its share of texts, images
    # and test images; of 5000 pairs no class had fewer than 619 on seeds
    # 0-159.
    TEXTS, IMAGES, PAIRS, TESTS = 100, 40, 500, 400
    CLASSES = ("c0", "c1", "c2", "c3", "c4")

    def setup(self, seed, workdir):
        ds = cm.generate(cm.SynthConfig(
            p=60, q=50, n_texts=1000, m_images=400, l_pairs=5000, n_test=4000,
            classes=5, seed=seed,
        ))
        seen = [c for c in self.CLASSES if c not in self.UNSEEN]
        texts = _per_class(ds.texts, lambda e: e.label, self.CLASSES, self.TEXTS)
        # `crossmodal zeroshot` refuses a training file that holds an image of
        # an unseen class, and the generator labels images of every class.
        seen_images = _per_class(ds.images, lambda e: e.label, seen, self.IMAGES)
        pairs = _per_class(ds.pairs, lambda e: e.class_id, self.CLASSES, self.PAIRS)
        self.test = _per_class(ds.test_images, lambda e: e.label, self.UNSEEN, self.TESTS)
        self.paths = {name: os.path.join(workdir, name) for name in
                      ("train.jsonl", "test.jsonl", "model.json", "pred.jsonl")}
        data_io.write_dataset(
            data_io.Corpora(texts=texts, images=seen_images, pairs=pairs),
            self.paths["train.jsonl"])
        data_io.write_dataset(data_io.Corpora(images=self.test), self.paths["test.jsonl"])

    def _commands(self):
        p = self.paths
        return {
            "zeroshot": ["zeroshot", "--data", p["train.jsonl"], "--unseen", ",".join(self.UNSEEN),
                         "--out", p["model.json"], "--gamma", "0.5", "--lambda", "1",
                         "--max-iter", str(self.ITERATIONS), "--tol", repr(BUDGET_TOL)],
            "predict": ["predict", "--model", p["model.json"], "--images", p["test.jsonl"],
                        "--out", p["pred.jsonl"]],
            "evaluate": ["evaluate", "--pred", p["pred.jsonl"], "--truth", p["test.jsonl"]],
        }

    def run_pass(self) -> PassResult:
        windows, printed = {}, {}
        del self.reports[:]
        for name, argv in self._commands().items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _timed(windows, name, cli.main, argv)
            if code != 0:
                raise StageFailed(name, f"exit {code}: {err.getvalue().strip()}")
            printed[name] = dict(line.split(" ", 1) for line in out.getvalue().splitlines())
        return PassResult(windows, len(self.test), float(printed["zeroshot"]["final_objective"]),
                          float(printed["evaluate"]["error_rate"]),
                          float(printed["evaluate"]["auc"]),
                          outputs={"reports": list(self.reports)})

    def check(self, result) -> list:
        failures = []
        (report,) = result.outputs["reports"]
        rise = oracles.descent_violation(report.objective_trace)
        if rise > oracles.DESCENT_SLACK:
            failures.append(("zeroshot", f"objective rose by {rise:.3e} in one iteration"))
        if report.final_objective != result.final_objective:
            failures.append(("zeroshot", "printed final_objective differs from the report"))

        model, mode, unseen = data_io.read_model(self.paths["model.json"])
        if mode != "zeroshot" or tuple(unseen) != self.UNSEEN:
            failures.append(("zeroshot", f"model file has mode {mode!r}, unseen {unseen}"))
        with open(self.paths["pred.jsonl"]) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        ids = [r["id"] for r in records]
        if len(set(ids)) != len(ids) or sorted(ids) != sorted(e.id for e in self.test):
            failures.append(("predict", f"{len(ids)} predictions for {len(self.test)} "
                                        f"query ids, {len(set(ids))} distinct"))
            return failures
        by_id = {r["id"]: r["scores"] for r in records}
        got = {c: np.array([by_id[e.id][c] for e in self.test]) for c in self.UNSEEN}
        expected = oracles.zeroshot_scores(model.S, model.source_texts, self.test, self.UNSEEN)
        for c in self.UNSEEN:
            worst = float(np.max(np.abs(got[c] - expected[c]) / np.maximum(1.0, np.abs(got[c]))))
            if worst > oracles.RECOMPUTE_RTOL:
                failures.append(("predict", f"scores for {c} differ from the batched "
                                            f"recomputation by {worst:.3e}"))
        error, auc = oracles.zeroshot_metrics(got, self.test)
        if result.test_error != error or not oracles.close(result.test_auc, auc):
            failures.append(("evaluate", f"evaluate printed error {result.test_error!r} "
                                         f"auc {result.test_auc!r}; recomputed {error!r} {auc!r}"))
        return failures


def _per_class(examples, label_of, classes, count):
    """The first `count` examples of each class, in their original order."""
    kept = {c: 0 for c in classes}
    out = []
    for e in examples:
        c = label_of(e)
        if c in kept and kept[c] < count:
            kept[c] += 1
            out.append(e)
    short = [c for c, k in kept.items() if k < count]
    if short:
        raise ValueError(f"fewer than {count} examples of class {short}")
    return out


def _capture_reports(sink):
    """Keep each TrainReport that `crossmodal zeroshot` produces, so its
    objective trace can be checked; the CLI prints only the last value."""
    original = zeroshot.train_zeroshot

    @functools.wraps(original)  # keeps the name the tracer wraps it under
    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result[1])
        return result

    zeroshot.train_zeroshot = capturing


WORKLOADS = {w.name: w for w in (FitBinary, CrossvalGrid, ZeroshotCli)}
