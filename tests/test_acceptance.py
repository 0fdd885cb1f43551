"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import importlib.util
import itertools
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from crossmodal.cli import main
from crossmodal.evaluation import auc, average_precision
from crossmodal.losses import misalign, misalign_deriv
from crossmodal.model import (
    Hyperparameters,
    scores,
    stack_features,
    unseen_scores,
)
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from crossmodal.zeroshot import train_zeroshot
from oracle_utils import (
    brute_force_auc,
    brute_force_average_precision,
    fd_grad_S,
    fd_grad_alpha,
    grad_S,
    grad_alpha,
    numerical_rank,
    random_instance,
    svt,
    trace_norm,
)

DEFAULT_TRAIN = dict(gamma=1.0, lam=1.0, C=1.0, max_iter=120, tol=1e-7)


def _script(name):
    """scripts/<name>.py, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_prox_oracle():
    rng = np.random.default_rng(100)
    start = time.time()
    worst = -np.inf
    for _ in range(200):
        rows, cols = rng.integers(1, 7), rng.integers(1, 9)
        M = rng.standard_normal((rows, cols)) * rng.uniform(0.5, 3.0)
        t = float(rng.uniform(0.0, 3.0))
        X_star = svt(M, t)
        val_star = 0.5 * np.linalg.norm(X_star - M) ** 2 + t * trace_norm(X_star)
        for _ in range(100):
            X = X_star + rng.standard_normal(M.shape) * rng.uniform(0.001, 2.0)
            val = 0.5 * np.linalg.norm(X - M) ** 2 + t * trace_norm(X)
            worst = max(worst, val_star - val)
    elapsed = time.time() - start
    report(
        "criterion 1: prox optimality oracle",
        worst <= 1e-9 and elapsed < 5.0,
        f"max violation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_gradient_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        p, q = rng.integers(2, 6), rng.integers(2, 6)
        n, m, l = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 5)
        data, hyper, S, alpha = random_instance(rng, p=p, q=q, n=n, m=m, l=l)
        err_S = np.max(np.abs(grad_S(S, alpha, data, hyper) - fd_grad_S(S, alpha, data, hyper)))
        err_a = np.max(np.abs(grad_alpha(S, alpha, data, hyper) - fd_grad_alpha(S, alpha, data, hyper)))
        worst = max(worst, err_S, err_a)
    elapsed = time.time() - start
    report(
        "criterion 2: gradient finite-difference oracle",
        worst < 1e-5 and elapsed < 5.0,
        f"max abs error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_descent():
    start = time.time()
    ds = generate(SynthConfig(seed=0))
    data = TrainData(ds.texts, ds.images, ds.pairs)
    hyper = Hyperparameters(gamma=1.0, lam=1.0, C=1.0, max_iter=200, tol=1e-16)
    _, rep = train(data, hyper)
    trace = np.array(rep.objective_trace)
    elapsed = time.time() - start
    monotone = bool(np.all(np.diff(trace) <= 1e-9))
    shrunk = trace[-1] <= 0.9 * trace[0]
    report(
        "criterion 3: monotone descent over 200 iterations",
        monotone and shrunk and elapsed < 60.0,
        f"initial {trace[0]:.1f}, final {trace[-1]:.1f}, "
        f"max step {np.max(np.diff(trace)):.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_loss_identities():
    pts = np.linspace(-15, 15, 1000)
    max_err = float(np.max(np.abs(misalign_deriv(pts) - (np.tanh(pts) - 1.0))))
    log2_err = abs(float(misalign(0.0)) - np.log(2.0))
    report(
        "criterion 4: loss identities",
        max_err <= 1e-10 and log2_err <= 1e-12,
        f"deriv identity err {max_err:.1e}, misalign(0) err {log2_err:.1e}",
    )


def test_criterion_05_planted_advantage():
    start = time.time()
    full_errs, base_errs = _script("planted_advantage").seed_errors(
        range(20), Hyperparameters(**DEFAULT_TRAIN), pairs=2000, images=4
    )
    diffs = np.array(base_errs) - np.array(full_errs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    elapsed = time.time() - start
    report(
        "criterion 5: planted-alignment advantage over intramodal baseline",
        diffs.mean() > 2.0 * se and elapsed < 600.0,
        f"mean error full {np.mean(full_errs):.3f} vs baseline {np.mean(base_errs):.3f}, "
        f"paired diff {diffs.mean():.3f} +- {se:.3f} SE, {elapsed:.0f}s",
    )


def test_criterion_06_pairs_count_trend():
    start = time.time()
    means, ses = [], []
    errors = _script("pairs_sweep").sweep_errors(
        (100, 500, 2000), range(10), Hyperparameters(**DEFAULT_TRAIN), images_per_class=2
    )
    for errs in errors.values():
        errs = np.array(errs)
        means.append(errs.mean())
        ses.append(errs.std(ddof=1) / np.sqrt(errs.size))
    elapsed = time.time() - start
    weakly_decreasing = all(
        means[k + 1] <= means[k] + ses[k] for k in range(len(means) - 1)
    )
    report(
        "criterion 6: error weakly decreasing in pairs count",
        weakly_decreasing and elapsed < 600.0,
        "errors " + ", ".join(f"{m:.3f}" for m in means) + f", {elapsed:.0f}s",
    )


def test_criterion_07_low_rank_recovery():
    ds = generate(SynthConfig(seed=1))
    model, rep = train(
        TrainData(ds.texts, ds.images, ds.pairs), Hyperparameters(**DEFAULT_TRAIN)
    )
    rank = numerical_rank(model.S)
    report(
        "criterion 7: low-rank transfer matrix",
        rank <= 15,
        f"numerical rank {rank} (planted rank {ds.config.r_true})",
    )


def test_criterion_08_zeroshot_sanity():
    start = time.time()
    aucs = []
    for seed in range(20):
        ds = generate(
            SynthConfig(seed=seed, classes=5, n_texts=200, m_images=100,
                        l_pairs=1000, n_test=200)
        )
        data = TrainData(ds.texts, ds.images, ds.pairs)
        hyper = Hyperparameters(gamma=0.5, lam=1.0, max_iter=100, tol=1e-7)
        model, _ = train_zeroshot(data, {"c0"}, hyper)
        Z = stack_features(ds.test_images, ds.config.q, "test image")
        c0_scores = unseen_scores(model, Z, ["c0"])[:, 0]
        truth = np.array([1 if e.label == "c0" else -1 for e in ds.test_images])
        aucs.append(auc(c0_scores, truth))
    aucs = np.array(aucs)
    se = aucs.std(ddof=1) / np.sqrt(aucs.size)
    elapsed = time.time() - start

    # unseen-class image labels never enter training: the c0 images of the
    # last seed are dropped, so leaving them out first gives the same S
    seen_only = replace(data, train_images=[i for i in ds.images if i.label != "c0"])
    guard_ok = np.array_equal(train_zeroshot(seen_only, {"c0"}, hyper)[0].S, model.S)

    report(
        "criterion 8: zero-shot AUC above chance",
        aucs.mean() > 0.5 + 3.0 * se and guard_ok and elapsed < 600.0,
        f"mean AUC {aucs.mean():.3f} +- {se:.3f} SE over 20 seeds, {elapsed:.0f}s",
    )


def test_criterion_09_metric_oracles():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in range(1, 9):
        scores = list(np.round(rng.uniform(-1, 1, n), 1))  # coarse grid forces ties
        for labels in itertools.product([-1, 1], repeat=n):
            if 1 in labels:
                worst = max(worst, abs(
                    average_precision(scores, labels)
                    - brute_force_average_precision(scores, labels)
                ))
            if 1 in labels and -1 in labels:
                worst = max(worst, abs(auc(scores, labels) - brute_force_auc(scores, labels)))
    report(
        "criterion 9: AP/AUC equal brute force on all labelings <= 8 items",
        worst <= 1e-12,
        f"max deviation {worst:.1e}",
    )


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    cfg = dict(p=10, q=8, r_true=3, n_texts=40, m_images=16, l_pairs=80, n_test=30, seed=21)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def pipeline(tag):
        data = tmp_path / f"data{tag}.jsonl"
        test = tmp_path / f"test{tag}.jsonl"
        model = tmp_path / f"model{tag}.json"
        pred = tmp_path / f"pred{tag}.jsonl"
        assert main(["synth", "--config", str(cfg_path), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "40"]) == 0
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 0
        assert main(["evaluate", "--pred", str(pred), "--truth", str(test)]) == 0
        return capsys.readouterr().out, model.read_bytes(), pred.read_bytes()

    out1, model_bytes, pred1 = pipeline("a")
    out2, _, pred2 = pipeline("b")

    from crossmodal import data_io

    model, _, _ = data_io.parse_model(model_bytes.decode())
    back, _, _ = data_io.parse_model(data_io.serialize_model(model))
    Z = np.random.default_rng(22).standard_normal((10, cfg["q"]))
    round_trip_exact = bool(np.all(scores(back, Z) == scores(model, Z)))
    report(
        "criterion 10: pipeline determinism and model round-trip",
        out1 == out2 and pred1 == pred2 and round_trip_exact,
        "identical reports and bit-exact discriminants",
    )
