"""Zero-shot label transfer: one class-independent transfer matrix trained on
seen classes only, then applied to rank images of classes that have labeled
text but no labeled images (`model.unseen_scores`)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    TrainedModel,
    l2_normalize,
    ovr_labels,
    stack_features,
)
from .solver import TrainReport, _Problem, _train_loop


@dataclass
class ZeroShotDataset:
    """Multi-class corpora split into seen and unseen classes.

    Labels here are class-id strings. Image labels of unseen classes must never
    enter training, so constructing a dataset with an unseen-tagged training
    image is an error.
    """

    seen_classes: frozenset[str]
    unseen_classes: frozenset[str]
    source_texts: list[CorpusExample]
    train_images: list[CorpusExample]
    pairs: list[CooccurrencePair] = field(default_factory=list)

    def __post_init__(self):
        self.seen_classes = frozenset(self.seen_classes)
        self.unseen_classes = frozenset(self.unseen_classes)
        if self.seen_classes & self.unseen_classes:
            raise DataError("seen and unseen class sets overlap")
        if not self.seen_classes:
            raise DataError("at least one seen class is required")
        for img in self.train_images:
            if img.label in self.unseen_classes:
                raise DataError(
                    f"training image {img.id!r} carries unseen class {img.label!r}"
                )
            if img.label not in self.seen_classes:
                raise DataError(
                    f"training image {img.id!r} has unknown class {img.label!r}"
                )


def filter_pairs(
    all_pairs: list[CooccurrencePair], unseen: frozenset[str] | set[str]
) -> list[CooccurrencePair]:
    """Drop pairs tagged with an unseen class, preserving order."""
    for idx, pair in enumerate(all_pairs):
        if pair.class_id is None:
            raise DataError(f"pair at index {idx} has no class tag")
    return [p for p in all_pairs if p.class_id not in unseen]


def train_zeroshot(
    ds: ZeroShotDataset, hyper: Hyperparameters, verbose=False, log=None
) -> tuple[TrainedModel, TrainReport]:
    """Train the shared transfer matrix on seen classes only.

    Each seen class contributes a one-vs-rest hinge block over the seen-class
    texts and training images; all blocks share one S. Pairs of unseen classes
    are excluded. No alpha coefficients are learned: the intramodal term has no
    meaning for classes without labeled images.
    """
    seen = sorted(ds.seen_classes)
    seen_texts = [t for t in ds.source_texts if t.label in ds.seen_classes]
    train_images = ds.train_images
    pairs = filter_pairs(ds.pairs, ds.unseen_classes) if ds.pairs else []
    if hyper.normalize:
        seen_texts = [
            CorpusExample(t.id, l2_normalize(t.features), t.label) for t in seen_texts
        ]
        train_images = [
            CorpusExample(i.id, l2_normalize(i.features), i.label) for i in train_images
        ]
        pairs = [
            CooccurrencePair(
                l2_normalize(c.text_features), l2_normalize(c.image_features), c.class_id
            )
            for c in pairs
        ]

    if seen_texts or pairs:
        p = (seen_texts[0] if seen_texts else None)
        p = p.features.shape[0] if p is not None else pairs[0].text_features.shape[0]
    else:
        raise DataError("zero-shot training needs seen-class texts or pairs")
    if train_images:
        q = train_images[0].features.shape[0]
    elif pairs:
        q = pairs[0].image_features.shape[0]
    else:
        raise DataError("zero-shot training needs images or pairs to fix q")

    text_X = stack_features(seen_texts, p, "source text")
    img_Z = stack_features(train_images, q, "training image")
    pair_X = np.stack([c.text_features for c in pairs]) if pairs else np.zeros((0, p))
    pair_Z = np.stack([c.image_features for c in pairs]) if pairs else np.zeros((0, q))

    pb = _Problem(
        text_X=text_X,
        text_Y=ovr_labels(seen_texts, seen),
        img_Z=img_Z,
        img_Y=ovr_labels(train_images, seen),
        pair_X=pair_X,
        pair_Z=pair_Z,
        K=None,
        p=p,
        q=q,
    )
    S, _, report = _train_loop(pb, hyper, verbose=verbose, log=log)
    model = TrainedModel(
        S=S,
        alpha=np.zeros(0),
        source_texts=ds.source_texts,
        train_images=[],
        kernel=hyper.kernel,
        hyper=hyper,
        normalize=hyper.normalize,
        final_objective=report.final_objective,
    )
    return model, report
