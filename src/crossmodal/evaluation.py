"""Ranking/classification metrics and twofold cross-validated grid search."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .model import (CorpusExample, Hyperparameters, ovr_labels, score_labels, scores, signs,
                    stack_features)
from .solver import TrainData, binary_problem, train

# Grid searched by twofold cross-validation, in selection order
# (lam-major, then gamma, then C).
DEFAULT_GRID = {
    "lam": (0.0, 0.5, 1.0, 2.0),
    "gamma": (0.1, 0.5, 1.0, 2.0),
    "C": (1.0, 2.0, 5.0, 10.0),
}


@dataclass
class EvalReport:
    error_rate: float
    ap: float
    auc: float
    per_class: dict[str, float] = field(default_factory=dict)

    def as_text(self) -> str:
        rows = [("error_rate", self.error_rate), ("ap", self.ap), ("auc", self.auc)]
        rows += sorted(self.per_class.items())
        return "\n".join(f"{key} {value!r}" for key, value in rows)


def error_rate(predictions, truth) -> float:
    """Fraction of label mismatches."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise DataError("predictions and truth must be equal-length, non-empty")
    return float(np.mean(predictions != truth))


def average_precision(scores, truth) -> float:
    """Mean precision at the rank of each positive, scores sorted descending.

    Ties keep input order (stable sort), so the result is deterministic.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.shape != truth.shape or scores.size == 0:
        raise DataError("scores and truth must be equal-length, non-empty")
    pos = truth == 1
    if not np.any(pos):
        raise DataError("average precision is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    hits = pos[order]
    ranks = np.arange(1, scores.size + 1)
    precisions = np.cumsum(hits) / ranks
    return float(np.mean(precisions[hits]))


def auc(scores, truth) -> float:
    """Probability a random positive outscores a random negative, ties as 1/2."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise DataError("scores and truth must have equal length")
    pos = truth == 1
    n_pos = int(np.sum(pos))
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative")
    if np.isnan(scores).any():
        raise DataError("AUC is undefined for NaN scores")
    u = float(np.sum(_average_ranks(scores)[pos])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the values of x, each tie group given the mean of the
    ranks it spans (so a tie contributes 1/2 to the AUC)."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[group]


def mean_ap(per_class_aps) -> float:
    """Arithmetic mean of per-class average precisions."""
    per_class_aps = list(per_class_aps)
    if not per_class_aps:
        raise DataError("mean AP of an empty collection is undefined")
    return float(np.mean(per_class_aps))


def binary_report(scores, labels, truth) -> EvalReport:
    """Error rate of the +1/-1 `labels`, and AP and AUC of the `scores`,
    against the +1/-1 `truth`."""
    return EvalReport(
        error_rate=error_rate(labels, truth),
        ap=average_precision(scores, truth),
        auc=auc(scores, truth),
    )


def zeroshot_report(table, classes, truth) -> EvalReport:
    """Metrics of a (k, B) zero-shot score table, one column per class of
    `classes`, against the true class of each of the k images.

    Each class gets the one-vs-rest AUC and AP of its column over every image;
    `auc` and `ap` are their means in sorted class order. A hard prediction is
    the highest-scoring class, an exact tie going to the first in sorted order,
    so `error_rate` counts only the images whose true class is scored.
    """
    table = np.asarray(table, dtype=float)
    if table.shape != (len(truth), len(classes)) or len(set(classes)) < len(classes):
        raise DataError(f"score table of shape {table.shape} for {len(truth)} images "
                        f"and classes {list(classes)}")
    order = sorted(range(len(classes)), key=list(classes).__getitem__)
    classes, table = [classes[b] for b in order], table[:, order]
    ys = ovr_labels(truth, classes)
    hits = ys > 0
    scored = hits.any(axis=1)
    if not scored.any():
        raise DataError(f"no predicted image is of a scored class {classes}")
    aucs = [auc(table[:, b], ys[:, b]) for b in range(len(classes))]
    aps = [average_precision(table[:, b], ys[:, b]) for b in range(len(classes))]
    return EvalReport(
        error_rate=error_rate(table[scored].argmax(axis=1), hits[scored].argmax(axis=1)),
        ap=mean_ap(aps),
        auc=float(np.mean(aucs)),
        per_class={**{f"auc_{c}": v for c, v in zip(classes, aucs)},
                   **{f"ap_{c}": v for c, v in zip(classes, aps)}},
    )


def evaluate_model(model, test_images: list[CorpusExample]) -> EvalReport:
    """Score labeled test images with a binary model and report all metrics."""
    s = scores(model, stack_features(test_images, model.S.shape[1], "test image"))
    return binary_report(s, score_labels(s), signs(test_images, "test image"))


def _stratified_folds(images: list[CorpusExample], seed: int):
    """Two label-stratified folds of image indices, deterministic in seed."""
    rng = np.random.default_rng(seed)
    by_label: dict = {}
    for idx, ex in enumerate(images):
        by_label.setdefault(ex.label, []).append(idx)
    folds = ([], [])
    for label in sorted(by_label, key=str):
        idxs = rng.permutation(by_label[label])
        folds[0].extend(idxs[0::2].tolist())
        folds[1].extend(idxs[1::2].tolist())
    return sorted(folds[0]), sorted(folds[1])


def crossval_select(
    data: TrainData,
    base: Hyperparameters | None = None,
    grid: dict | None = None,
    seed: int = 0,
) -> Hyperparameters:
    """Pick (lam, gamma, C) by twofold cross-validation on the labeled images.

    Ties go to the first candidate in deterministic grid order. Other
    hyperparameters come from `base` unchanged.

    The result is that of fitting every grid point on both folds, but two
    kinds of fit are skipped because they cannot change it. C enters a fit
    only through the clip of alpha to [0, C], and a fit's report has a fork
    where an alpha probe first passed its C, so a fit at C_fit <= C of the
    same (lam, gamma) and fold without a fork runs the same path as the fit
    at C, and its error is reused. And a point is picked only if its mean
    error is strictly below the best so far, so its remaining fold is not
    fitted once the mean with that fold's error taken as 0 is not. Every
    fit of a fold trains on one problem per sign of lam, built at its first
    fit (`solver.binary_problem`), and so continues the fit at the largest
    smaller C from its fork (`solver._fit`).
    """
    if base is None:
        base = Hyperparameters()
    if grid is None:
        grid = DEFAULT_GRID
    if len(data.train_images) < 2:
        raise DataError("twofold cross-validation needs at least 2 labeled images")
    fold_a, fold_b = _stratified_folds(data.train_images, seed)
    if not fold_b:
        # Each label's first image goes to the first fold.
        raise DataError(
            "the second cross-validation fold is empty: every label has only one image"
        )
    q = data.train_images[0].features.shape[0]
    Z = stack_features(data.train_images, q, "training image")
    truth = signs(data.train_images, "training image")
    folds = [
        _Fold(replace(data, train_images=[data.train_images[i] for i in train_idx]),
              Z[val_idx], truth[val_idx])
        for train_idx, val_idx in ((fold_a, fold_b), (fold_b, fold_a))
    ]

    best = None
    best_err = np.inf
    for lam, gamma, C in itertools.product(grid["lam"], grid["gamma"], grid["C"]):
        cand = replace(base, lam=lam, gamma=gamma, C=C)
        errs = [fold.known_error(cand) for fold in folds]
        for k, fold in enumerate(folds):
            if errs[k] is None and _mean_floor(errs) < best_err:
                errs[k] = fold.fit_error(cand)
        if None in errs:
            continue
        mean_err = float(np.mean(errs))
        if mean_err < best_err:
            best_err = mean_err
            best = cand
    if best is None:
        raise DataError("empty hyperparameter grid")
    return best


def _mean_floor(errs) -> float:
    """The mean of the fold errors with each unknown one (None) taken as 0: a
    lower bound on the mean once all are known."""
    return float(np.mean([0.0 if e is None else e for e in errs]))


@dataclass
class _Fold:
    """One cross-validation split: the data its fits train on, the held-out
    images they are scored on, per (lam, gamma) the (C, report, error) of
    each fit run so far, and per lam > 0 the problem those fits share."""

    data: TrainData
    Z_val: np.ndarray
    truth_val: np.ndarray
    fits: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)

    def known_error(self, hyper: Hyperparameters) -> float | None:
        """The error of a fit already run whose path a fit at `hyper` repeats:
        the fit of the same (lam, gamma) at the largest C_fit <= hyper.C, when
        that is at the same C, or has no fork and so is the fit at every
        larger C."""
        below = max((fit for fit in self.fits.get((hyper.lam, hyper.gamma), ())
                     if fit[0] <= hyper.C), key=lambda fit: fit[0], default=None)
        return below[2] if below and (below[0] == hyper.C or below[1].fork is None) else None

    def fit_error(self, hyper: Hyperparameters) -> float:
        """Fit at `hyper` and return its error rate on the held-out images.
        Every hyper of a crossval_select call shares its kernel and
        normalize, so the fold's problem at lam > 0 is the same for all of
        them, and likewise at 0; a fit on it continues the fit of the
        largest smaller C from its fork (`solver._fit`)."""
        key = hyper.lam > 0
        if key not in self.problems:
            self.problems[key] = binary_problem(self.data, hyper)
        model, report = train(self.data, hyper, problem=self.problems[key])
        err = error_rate(score_labels(scores(model, self.Z_val)), self.truth_val)
        self.fits.setdefault((hyper.lam, hyper.gamma), []).append((hyper.C, report, err))
        return err
