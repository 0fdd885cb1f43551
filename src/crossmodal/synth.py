"""Synthetic multimodal data with a planted low-rank alignment.

Every entity owns a latent vector h; texts are x = A h + noise and images are
z = B h + noise through fixed random maps, so co-occurring pairs share one h
and the true cross-modal alignment has rank r_true. Labels come from linear
functionals of h.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import CooccurrencePair, CorpusExample

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
        if self.r_true > min(self.p, self.q):
            raise ValueError("r_true must not exceed min(p, q)")
        if min(self.p, self.q, self.r_true) < 1 or self.classes < 2:
            raise ValueError("dimensions and class count must be positive")
        if min(self.n_texts, self.m_images, self.l_pairs, self.n_test) < 0:
            raise ValueError("counts must be >= 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass
class SynthDataset:
    texts: list[CorpusExample]
    images: list[CorpusExample]
    test_images: list[CorpusExample]
    pairs: list[CooccurrencePair]
    config: SynthConfig
    class_ids: list[str] = field(default_factory=list)


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
    """Deterministic dataset for the given config (same seed, same bytes)."""
    rng = np.random.default_rng(cfg.seed)
    binary = cfg.classes == 2

    # Scaled so a typical feature vector has unit expected squared norm and the
    # noise contributes noise_sigma^2 of it.
    A = rng.standard_normal((cfg.p, cfg.r_true)) / np.sqrt(cfg.p * cfg.r_true)
    B = rng.standard_normal((cfg.q, cfg.r_true)) / np.sqrt(cfg.q * cfg.r_true)
    W = _draw_class_weights(rng, cfg, binary)

    def emit_text(h):
        x = A @ h
        if cfg.noise_sigma > 0:
            x = x + cfg.noise_sigma / np.sqrt(cfg.p) * rng.standard_normal(cfg.p)
        return x

    def emit_image(h):
        z = B @ h
        if cfg.noise_sigma > 0:
            z = z + cfg.noise_sigma / np.sqrt(cfg.q) * rng.standard_normal(cfg.q)
        return z

    def to_label(raw):
        return int(raw) if binary else f"c{raw}"

    class_ids = [] if binary else [f"c{c}" for c in range(cfg.classes)]

    H, labels = _draw_labeled(rng, cfg.n_texts, cfg, W, binary)
    texts = [
        CorpusExample(f"t{i}", emit_text(H[i]), to_label(labels[i]))
        for i in range(cfg.n_texts)
    ]

    H, labels = _draw_labeled(rng, cfg.m_images, cfg, W, binary)
    images = [
        CorpusExample(f"i{i}", emit_image(H[i]), to_label(labels[i]))
        for i in range(cfg.m_images)
    ]

    H, labels = _draw_labeled(rng, cfg.n_test, cfg, W, binary)
    test_images = [
        CorpusExample(f"e{i}", emit_image(H[i]), to_label(labels[i]))
        for i in range(cfg.n_test)
    ]

    Hp = rng.standard_normal((cfg.l_pairs, cfg.r_true))
    tags = _labels(Hp, W, binary)
    pairs = [
        CooccurrencePair(
            emit_text(Hp[k]),
            emit_image(Hp[k]),
            class_id=None if binary else f"c{tags[k]}",
        )
        for k in range(cfg.l_pairs)
    ]

    return SynthDataset(
        texts=texts,
        images=images,
        test_images=test_images,
        pairs=pairs,
        config=cfg,
        class_ids=class_ids,
    )
