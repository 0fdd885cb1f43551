"""Zero-shot label transfer: one class-independent transfer matrix trained on
seen classes only, then applied to rank images of classes that have labeled
text but no labeled images (`model.unseen_scores`)."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .model import CooccurrencePair, CorpusExample, Hyperparameters, TrainedModel, ovr_labels
from .solver import TrainData, TrainReport, _build_problem, _train_loop, normalize_data


@dataclass
class ZeroShotDataset:
    """Multi-class corpora split into seen and unseen classes.

    Labels here are class-id strings. Image labels of unseen classes must never
    enter training, so constructing a dataset with an unseen-tagged training
    image is an error.
    """

    unseen_classes: frozenset[str]
    source_texts: list[CorpusExample]
    train_images: list[CorpusExample]
    pairs: list[CooccurrencePair] = field(default_factory=list)

    def __post_init__(self):
        self.unseen_classes = frozenset(self.unseen_classes)
        for img in self.train_images:
            if img.label in self.unseen_classes:
                raise DataError(
                    f"training image {img.id!r} carries unseen class {img.label!r}"
                )
            if not isinstance(img.label, str):
                raise DataError(
                    f"training image {img.id!r} has label {img.label!r}, not a class id"
                )
        if not self.seen_classes:
            raise DataError("at least one seen class is required")

    @property
    def seen_classes(self) -> frozenset[str]:
        """Every class of the texts and training images that is not unseen."""
        labels = {e.label for e in self.source_texts + self.train_images}
        return frozenset(c for c in labels if isinstance(c, str)) - self.unseen_classes


def filter_pairs(
    all_pairs: list[CooccurrencePair], unseen: frozenset[str] | set[str]
) -> list[CooccurrencePair]:
    """Drop pairs tagged with an unseen class, preserving order."""
    for idx, pair in enumerate(all_pairs):
        if pair.class_id is None:
            raise DataError(f"pair at index {idx} has no class tag")
    return [p for p in all_pairs if p.class_id not in unseen]


def train_zeroshot(
    ds: ZeroShotDataset, hyper: Hyperparameters, log=None
) -> tuple[TrainedModel, TrainReport]:
    """Train the shared transfer matrix on seen classes only.

    Each seen class contributes a one-vs-rest hinge block over the seen-class
    texts and training images; all blocks share one S. Pairs of unseen classes
    are excluded. No alpha coefficients are learned: the intramodal term has no
    meaning for classes without labeled images.
    """
    seen = ds.seen_classes
    classes = sorted(seen)
    data = TrainData(ds.source_texts, ds.train_images, filter_pairs(ds.pairs, ds.unseen_classes))
    if hyper.normalize:
        data = normalize_data(data)
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
