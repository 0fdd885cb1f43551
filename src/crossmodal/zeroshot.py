"""Zero-shot label transfer: one class-independent transfer matrix trained on
seen classes only, then applied to rank images of classes that have labeled
text but no labeled images (`model.unseen_scores`)."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from .errors import DataError
from .model import Hyperparameters, TrainedModel, check_unseen_texts, ovr_labels
from .solver import TrainData, TrainReport, _build_problem, _train_loop, normalize_data


def train_zeroshot(
    data: TrainData, unseen: Iterable[str], hyper: Hyperparameters, log=None
) -> tuple[TrainedModel, TrainReport]:
    """Train the shared transfer matrix on the seen classes only.

    Labels here are class-id strings. Every unseen class must label a text,
    every training image needs a class id and every pair a class tag. The
    seen classes are the classes of the texts and training images that are
    not unseen; at least one is required. Training images and pairs of unseen
    classes are dropped: their labels never enter training.

    Each seen class contributes a one-vs-rest hinge block over the seen-class
    texts and training images; all blocks share one S. No alpha coefficients
    are learned: the intramodal term has no meaning for classes without
    labeled images.
    """
    unseen = frozenset(unseen)
    labels = {e.label for e in data.source_texts + data.train_images}
    unknown = unseen - labels
    if unknown:
        raise DataError(f"unseen classes not present in data: {sorted(unknown)}")
    check_unseen_texts(data.source_texts, unseen)
    for img in data.train_images:
        if not isinstance(img.label, str):
            raise DataError(f"training image {img.id!r} has label {img.label!r}, not a class id")
    seen = frozenset(c for c in labels - unseen if isinstance(c, str))
    if not seen:
        raise DataError("at least one seen class is required")
    for idx, pair in enumerate(data.pairs):
        if pair.class_id is None:
            raise DataError(f"pair at index {idx} has no class tag")
    data = replace(
        data,
        train_images=[i for i in data.train_images if i.label not in unseen],
        pairs=[c for c in data.pairs if c.class_id not in unseen],
    )
    if hyper.normalize:
        data = normalize_data(data)
    classes = sorted(seen)
    seen_texts = [t for t in data.source_texts if t.label in seen]
    if not seen_texts and not data.pairs:
        # Unseen classes are scored through S, so it needs the texts' width.
        raise DataError("no seen-class texts or pairs to infer the text dimension p")
    pb = _build_problem(
        replace(data, source_texts=seen_texts),
        ovr_labels(seen_texts, classes),
        ovr_labels(data.train_images, classes),
        kernel=None,
    )
    S, _, report = _train_loop(pb, hyper, log=log)
    model = TrainedModel(
        S=S,
        alpha=np.zeros(0),
        source_texts=data.source_texts,
        train_images=[],
        kernel=hyper.kernel,
        hyper=hyper,
        final_objective=report.final_objective,
    )
    return model, report
