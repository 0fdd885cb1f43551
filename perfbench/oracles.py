"""Output checks that do not trust the package's own code paths.

Scores and the objective are recomputed here in plain batched numpy from the
trained matrices, and the metrics from scipy's ranks, so a change to the
package's scoring, objective or metric code that alters an answer fails the
check instead of moving a number.
"""
from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

# Criterion 3 of the acceptance suite: objective steps may rise by at most this.
DESCENT_SLACK = 1e-9
# Relative agreement between a reported value and its recomputation here.
RECOMPUTE_RTOL = 1e-9


def descent_violation(trace) -> float:
    """Largest rise between consecutive objective values (<= 0 is monotone)."""
    trace = np.asarray(trace, dtype=float)
    return float(np.max(np.diff(trace))) if trace.size > 1 else 0.0


def close(a: float, b: float, rtol: float = RECOMPUTE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _stack(examples):
    return np.stack([e.features for e in examples])


def _labels(examples):
    return np.array([float(e.label) for e in examples])


def gaussian_gram(Z1, Z2, bandwidth):
    d2 = (Z1**2).sum(axis=1)[:, None] + (Z2**2).sum(axis=1)[None, :] - 2.0 * Z1 @ Z2.T
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * bandwidth**2))


def binary_scores(model, test_images) -> np.ndarray:
    """f_inter + f_intra for every test image at once."""
    Z = _stack(test_images)
    if model.normalize:
        Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    scores = _labels(model.source_texts) @ np.tanh(_stack(model.source_texts) @ model.S @ Z.T)
    if model.train_images:
        if model.kernel.kind != "gaussian":
            raise ValueError("the benchmark trains gaussian-kernel models only")
        K = gaussian_gram(_stack(model.train_images), Z, model.kernel.bandwidth)
        scores = scores + (model.alpha * _labels(model.train_images)) @ K
    return scores


def binary_objective(model, data, hyper) -> float:
    """gamma * hinge + lam * misalignment + trace norm, from the model's S, alpha."""
    S = model.S
    Zi = _stack(data.train_images)
    yi = _labels(data.train_images)
    f = _labels(data.source_texts) @ np.tanh(_stack(data.source_texts) @ S @ Zi.T)
    f = f + gaussian_gram(Zi, Zi, model.kernel.bandwidth) @ (model.alpha * yi)
    hinge = np.maximum(1.0 - yi * f, 0.0).sum()
    a = np.einsum("ij,ij->i", np.stack([c.text_features for c in data.pairs]) @ S,
                  np.stack([c.image_features for c in data.pairs]))
    misalign = np.logaddexp(0.0, -2.0 * a).sum()
    trace_norm = np.linalg.svd(S, compute_uv=False).sum()
    return float(hyper.gamma * hinge + hyper.lam * misalign + trace_norm)


def auc(scores, truth) -> float:
    """Mann-Whitney AUC with ties as 1/2; truth is a boolean mask of positives."""
    truth = np.asarray(truth, dtype=bool)
    ranks = rankdata(scores)
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def binary_metrics(scores, test_images) -> tuple[float, float]:
    """(error rate with score 0 mapped to -1, AUC) against the +1/-1 labels."""
    truth = _labels(test_images)
    preds = np.where(scores > 0, 1.0, -1.0)
    return float(np.mean(preds != truth)), auc(scores, truth == 1)


def zeroshot_scores(S, texts, images, classes) -> dict[str, np.ndarray]:
    """Per unseen class, sum over all texts of (+1 if of that class else -1)
    times tanh(x' S z), for every image at once."""
    T = np.tanh(_stack(texts) @ S @ _stack(images).T)
    labels = np.array([t.label for t in texts])
    return {c: np.where(labels == c, 1.0, -1.0) @ T for c in classes}


def zeroshot_metrics(scores: dict, images) -> tuple[float, float]:
    """(argmax error over the unseen classes, mean one-vs-rest AUC)."""
    classes = sorted(scores)
    truth = np.array([e.label for e in images])
    table = np.stack([scores[c] for c in classes])
    preds = np.array(classes)[np.argmax(table, axis=0)]
    aucs = [auc(scores[c], truth == c) for c in classes]
    return float(np.mean(preds != truth)), float(np.mean(aucs))
