"""Shared independent oracles: finite differences, brute-force ranking metrics,
the per-image scalar discriminants the batched scoring path is checked
against, the single-block objective and its gradients, and random small
training instances."""
import itertools

import numpy as np

from crossmodal import linalg
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    l2_normalize,
    signs,
)
from crossmodal.solver import (
    TrainData,
    _build_problem,
    _grad_alpha_arrays,
    _grad_S_arrays,
    _smooth,
)


# Scalar scoring oracles: one image, one text or one training image at a time.

def _check_dim(v: np.ndarray, dim: int, name: str):
    if v.shape != (dim,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({dim},)")


def transfer_score(x: np.ndarray, S: np.ndarray, z: np.ndarray) -> float:
    """Alignment of a text vector and an image vector: tanh(x' S z)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    p, q = S.shape
    _check_dim(x, p, "text features")
    _check_dim(z, q, "image features")
    t = float(np.tanh(x @ S @ z))
    # tanh saturates to +/-1.0 in double precision around |arg| ~ 19; keep the
    # advertised open interval.
    bound = np.nextafter(1.0, 0.0)
    return min(max(t, -bound), bound)


def f_inter(S: np.ndarray, source_texts: list[CorpusExample], z: np.ndarray) -> float:
    """Intermodal discriminant: sum_i y_i * tanh(x_i' S z) over the text corpus."""
    z = np.asarray(z, dtype=float)
    p, q = S.shape
    _check_dim(z, q, "image features")
    total = 0.0
    for t in source_texts:
        _check_dim(t.features, p, "text features")
        total += float(t.label) * float(np.tanh(t.features @ S @ z))
    return total


def kernel_eval(kernel: KernelSpec, z1: np.ndarray, z2: np.ndarray) -> float:
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise ValueError(f"kernel arguments have shapes {z1.shape} vs {z2.shape}")
    if kernel.kind == "linear":
        return float(z1 @ z2)
    if kernel.bandwidth is None:
        raise ValueError("gaussian kernel bandwidth not resolved")
    d2 = float(np.sum((z1 - z2) ** 2))
    return float(np.exp(-d2 / (2.0 * kernel.bandwidth**2)))


def f_intra(model: TrainedModel, z: np.ndarray) -> float:
    """Intramodal discriminant: sum_j y_j alpha_j K(z_j, z) over training images."""
    z = np.asarray(z, dtype=float)
    total = 0.0
    for ex, a in zip(model.train_images, model.alpha):
        total += float(ex.label) * a * kernel_eval(model.kernel, ex.features, z)
    return total


def discriminant(model: TrainedModel, z: np.ndarray) -> float:
    """Joint discriminant f_inter + f_intra for a query image."""
    z = np.asarray(z, dtype=float)
    if model.normalize:
        z = l2_normalize(z)
    return f_inter(model.S, model.source_texts, z) + f_intra(model, z)


def predict_label(model: TrainedModel, z: np.ndarray) -> int:
    """sign of the discriminant; exactly zero maps to -1 for determinism."""
    return 1 if discriminant(model, z) > 0 else -1


def one_vs_rest_texts(texts: list[CorpusExample], cls: str) -> list[CorpusExample]:
    """Relabel class-tagged texts to +1 for `cls` and -1 for everything else."""
    return [
        CorpusExample(t.id, t.features, 1 if t.label == cls else -1) for t in texts
    ]


def score_unseen(
    S: np.ndarray, class_texts: list[CorpusExample], z: np.ndarray
) -> float:
    """Intermodal score of image z for a class given one-vs-rest labeled texts."""
    return f_inter(S, class_texts, z)


# The binary training objective at a given (S, alpha), one call at a time.


def _binary_problem(data: TrainData, hyper: Hyperparameters):
    return _build_problem(
        data, signs(data.source_texts)[:, None], signs(data.train_images)[:, None], hyper.kernel
    )


def objective(S, alpha, data: TrainData, hyper: Hyperparameters) -> float:
    """Full training objective: hinge + misalignment + trace norm of S."""
    return smooth_value(S, alpha, data, hyper) + linalg.trace_norm(S)


def smooth_value(S, alpha, data: TrainData, hyper: Hyperparameters) -> float:
    """The objective minus the trace norm: the (sub)differentiable part."""
    pb = _binary_problem(data, hyper)
    return _smooth(np.asarray(S, dtype=float), np.asarray(alpha, dtype=float), pb, hyper)


def grad_S(S, alpha, data: TrainData, hyper: Hyperparameters) -> np.ndarray:
    """Subgradient of the smooth part with respect to S."""
    pb = _binary_problem(data, hyper)
    return _grad_S_arrays(np.asarray(S, dtype=float), np.asarray(alpha, dtype=float), pb, hyper)


def grad_alpha(S, alpha, data: TrainData, hyper: Hyperparameters) -> np.ndarray:
    """Subgradient of the smooth part with respect to alpha."""
    pb = _binary_problem(data, hyper)
    return _grad_alpha_arrays(np.asarray(S, dtype=float), np.asarray(alpha, dtype=float), pb, hyper)


# Random instances and finite differences.


def random_instance(rng, p=3, q=4, n=2, m=2, l=3):
    """Small random training instance plus a random (S, alpha) evaluation point,
    resampled so no training margin sits on the hinge kink."""
    for _ in range(200):
        texts = [
            CorpusExample(f"t{i}", rng.standard_normal(p), int(rng.choice([-1, 1])))
            for i in range(n)
        ]
        images = [
            CorpusExample(f"i{j}", rng.standard_normal(q), int(rng.choice([-1, 1])))
            for j in range(m)
        ]
        pairs = [
            CooccurrencePair(rng.standard_normal(p), rng.standard_normal(q))
            for _ in range(l)
        ]
        data = TrainData(source_texts=texts, train_images=images, pairs=pairs, p=p, q=q)
        hyper = Hyperparameters(
            gamma=float(rng.uniform(0.2, 2.0)),
            lam=float(rng.uniform(0.2, 2.0)),
            C=float(rng.uniform(0.5, 3.0)),
            kernel=KernelSpec(bandwidth=float(rng.uniform(0.5, 2.0))),
        )
        S = rng.standard_normal((p, q)) * 0.5
        alpha = rng.uniform(0.05, hyper.C * 0.95, m)
        if not _near_kink(S, alpha, data, hyper):
            return data, hyper, S, alpha
    raise AssertionError("could not sample a kink-free instance")


def _near_kink(S, alpha, data, hyper, margin_tol=1e-4):
    model = TrainedModel(
        S=S,
        alpha=alpha,
        source_texts=data.source_texts,
        train_images=data.train_images,
        kernel=hyper.kernel,
        hyper=hyper,
    )
    for img in data.train_images:
        yf = float(img.label) * discriminant(model, img.features)
        if abs(yf - 1.0) < margin_tol:
            return True
    return False


def fd_grad_S(S, alpha, data, hyper, h=1e-6):
    grad = np.zeros_like(S)
    for i in range(S.shape[0]):
        for j in range(S.shape[1]):
            Sp, Sm = S.copy(), S.copy()
            Sp[i, j] += h
            Sm[i, j] -= h
            grad[i, j] = (
                smooth_value(Sp, alpha, data, hyper)
                - smooth_value(Sm, alpha, data, hyper)
            ) / (2 * h)
    return grad


def fd_grad_alpha(S, alpha, data, hyper, h=1e-6):
    grad = np.zeros_like(alpha)
    for j in range(alpha.size):
        ap, am = alpha.copy(), alpha.copy()
        ap[j] += h
        am[j] -= h
        grad[j] = (
            smooth_value(S, ap, data, hyper) - smooth_value(S, am, data, hyper)
        ) / (2 * h)
    return grad


def brute_force_average_precision(scores, truth):
    """Direct definition: precision at the rank of each positive under a stable
    descending sort, averaged over positives."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranked = [truth[i] for i in order]
    precisions = []
    hits = 0
    for rank, label in enumerate(ranked, start=1):
        if label == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def brute_force_auc(scores, truth):
    """Enumerate every positive/negative pair; ties count one half."""
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t != 1]
    wins = 0.0
    for sp, sn in itertools.product(pos, neg):
        if sp > sn:
            wins += 1.0
        elif sp == sn:
            wins += 0.5
    return wins / (len(pos) * len(neg))
