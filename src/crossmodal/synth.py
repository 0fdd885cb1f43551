"""Synthetic multimodal data with a planted low-rank alignment.

Every entity owns a latent vector h; texts are x = A h + noise and images are
z = B h + noise through fixed random maps, so co-occurring pairs share one h
and the true cross-modal alignment has rank r_true. Labels come from linear
functionals of h.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError
from .model import CooccurrencePair, Corpora, CorpusExample, check_types

_MAX_REDRAWS = 500


@dataclass(frozen=True)
class SynthConfig:
    p: int = 40
    q: int = 30
    r_true: int = 5
    n_texts: int = 200
    m_images: int = 50
    l_pairs: int = 2000
    n_test: int = 200
    classes: int = 2
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        check_types(self, {f.name: numbers.Real if f.name == "noise_sigma" else numbers.Integral
                           for f in fields(self)})
        if min(self.p, self.q, self.r_true) < 1 or self.classes < 2:
            raise ValueError("dimensions and class count must be positive")
        if self.r_true > min(self.p, self.q):
            raise ValueError("r_true must not exceed min(p, q)")
        if min(self.n_texts, self.m_images, self.l_pairs, self.n_test, self.seed) < 0:
            raise ValueError("counts and seed must be >= 0")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")


@dataclass
class SynthDataset(Corpora):
    """The training corpora of a config, plus its held-out test images."""

    test_images: list[CorpusExample] = field(default_factory=list)


def _labels(H: np.ndarray, W: np.ndarray, binary: bool):
    scores = H @ W.T  # (n, classes)
    if binary:
        return np.where(scores[:, 0] > 0, 1, -1)
    return scores.argmax(axis=1)


def _balanced(labels: np.ndarray, classes: int, binary: bool) -> bool:
    n = labels.size
    if n == 0:
        return True
    if binary:
        pos = int(np.sum(labels == 1))
        # half-count slack keeps small odd-sized collections feasible
        return abs(pos - n / 2) <= max(0.05 * n, 0.5)
    counts = np.bincount(labels, minlength=classes)
    return counts.min() >= 0.5 * n / classes


def _draw_class_weights(rng, cfg: SynthConfig, binary: bool) -> np.ndarray:
    """Class weight vectors; in multi-class mode, redrawn until every class
    wins at least 70% of an even share of argmax wins on a probe batch (a
    lopsided draw would make per-collection balance rejection hopeless). When
    no redraw does, the draw whose least-won class won most."""
    if binary:
        return rng.standard_normal((cfg.classes, cfg.r_true))
    best = (-1, None)  # (smallest probe count, W); max keeps the first of a tie
    for _ in range(_MAX_REDRAWS):
        W = rng.standard_normal((cfg.classes, cfg.r_true))
        probe = _labels(rng.standard_normal((2000, cfg.r_true)), W, binary=False)
        least = np.bincount(probe, minlength=cfg.classes).min()
        if least >= 0.7 * 2000 / cfg.classes:
            return W
        best = max(best, (least, W), key=lambda draw: draw[0])
    return best[1]


def _draw_labeled(rng, count, cfg: SynthConfig, W, binary):
    """Latents plus labels, redrawn until the label distribution is balanced."""
    for _ in range(_MAX_REDRAWS):
        H = rng.standard_normal((count, cfg.r_true))
        labels = _labels(H, W, binary)
        if _balanced(labels, cfg.classes, binary):
            return H, labels
    raise DataError("could not draw a balanced labeling; adjust the config")


def generate(cfg: SynthConfig) -> SynthDataset:
    """Deterministic dataset for the given config (same seed, same bytes).

    One stream is drawn in order: maps A and B, class weights, then per corpus
    (texts, images, test images, pairs) its latents and then its noise, row by
    row, a pair's text noise before its image noise. Examples view corpus rows.
    """
    rng = np.random.default_rng(cfg.seed)
    binary = cfg.classes == 2

    # Scaled so a typical feature vector has unit expected squared norm and the
    # noise contributes noise_sigma^2 of it.
    A = rng.standard_normal((cfg.p, cfg.r_true)) / np.sqrt(cfg.p * cfg.r_true)
    B = rng.standard_normal((cfg.q, cfg.r_true)) / np.sqrt(cfg.q * cfg.r_true)
    W = _draw_class_weights(rng, cfg, binary)

    def emit(H, *maps):
        """Rows [M h + noise for M in maps], one per latent row h. The batched matmul
        issues `M @ h`'s gemv; one GEMM, H @ M.T, would round some values differently."""
        shape, start = (len(H), sum(M.shape[0] for M in maps)), 0
        out = rng.standard_normal(shape) if cfg.noise_sigma > 0 else np.empty(shape)
        for M in maps:
            cols = out[:, start:start + M.shape[0]]
            signal = np.matmul(M, H[:, :, None])[:, :, 0]
            if cfg.noise_sigma > 0:
                cols *= cfg.noise_sigma / np.sqrt(M.shape[0])
                cols += signal
            else:
                cols[...] = signal
            start += M.shape[0]
        return out

    def tag(raw):
        return raw if binary else f"c{raw}"

    def corpus(prefix, count, M):
        H, labels = _draw_labeled(rng, count, cfg, W, binary)
        return [CorpusExample(f"{prefix}{i}", x, tag(y))
                for i, (x, y) in enumerate(zip(emit(H, M), labels.tolist()))]

    texts = corpus("t", cfg.n_texts, A)
    images = corpus("i", cfg.m_images, B)
    test_images = corpus("e", cfg.n_test, B)
    Hp = rng.standard_normal((cfg.l_pairs, cfg.r_true))
    pairs = [CooccurrencePair(row[:cfg.p], row[cfg.p:], class_id=None if binary else tag(t))
             for t, row in zip(_labels(Hp, W, binary).tolist(), emit(Hp, A, B))]
    return SynthDataset(texts=texts, images=images, pairs=pairs, test_images=test_images)
