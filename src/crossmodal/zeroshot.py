"""Zero-shot label transfer: one class-independent transfer matrix trained on
seen classes only, then applied to rank images of classes that have labeled
text but no labeled images (`model.unseen_scores`)."""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import DataError
from .model import Hyperparameters, TrainedModel, check_unseen_texts, is_sign, ovr_labels
from .solver import TrainData, TrainReport, _build_problem, _fit


def train_zeroshot(
    data: TrainData, unseen: Iterable[str], hyper: Hyperparameters, log=None
) -> tuple[TrainedModel, TrainReport]:
    """Train the shared transfer matrix on the seen classes only.

    Labels here are class-id strings; a text may also carry a +1/-1 label,
    which votes -1 for every class. Every unseen class must label a text,
    every training image needs a class id and every pair a class tag. The
    seen classes are the classes of the texts and training images that are
    not unseen; at least one is required. Training images and pairs of unseen
    classes are dropped, and texts of no seen class sit out of training, so
    their labels never enter it; the model keeps every text.

    Each seen class contributes a one-vs-rest hinge block over the seen-class
    texts and training images; all blocks share one S. No alpha coefficients
    are learned: the intramodal term has no meaning for classes without
    labeled images.
    """
    unseen = frozenset(unseen)
    texts = data.source_texts
    check_unseen_texts(texts, unseen)
    for t in texts:
        if not (isinstance(t.label, str) or is_sign(t.label)):
            raise DataError(f"source text {t.id!r} has label {t.label!r}, "
                            "neither a class id nor +1/-1")
    for img in data.train_images:
        if not isinstance(img.label, str):
            raise DataError(f"training image {img.id!r} has label {img.label!r}, not a class id")
    labels = {e.label for e in texts + data.train_images}
    seen = frozenset(c for c in labels - unseen if isinstance(c, str))
    if not seen:
        raise DataError("at least one seen class is required")
    for idx, pair in enumerate(data.pairs):
        if pair.class_id is None:
            raise DataError(f"pair at index {idx} has no class tag")
    images = [i for i in data.train_images if i.label not in unseen]
    pairs = [c for c in data.pairs if c.class_id not in unseen]
    classes = sorted(seen)
    text_Y = ovr_labels([t.label for t in texts], classes)
    in_seen = (text_Y > 0).any(axis=1)
    if not in_seen.any() and not pairs:
        # Every text is stacked, so p is known; but with no seen-class text
        # and no pair, S would have nothing to learn from.
        raise DataError("no seen-class texts or pairs for S to learn from")
    # All-zero label rows keep the other texts out of the problem.
    text_Y = np.where(in_seen[:, None], text_Y, 0.0)
    pb = _build_problem(TrainData(texts, images, pairs), text_Y,
                        ovr_labels([i.label for i in images], classes), None, hyper)
    return _fit(pb, hyper, log)
