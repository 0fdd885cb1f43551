"""Joint intermodal/intramodal label transfer: classify images from labeled
text via a trace-norm-regularized transfer matrix plus a kernelized
intramodal term, with a zero-shot mode for classes lacking labeled images."""

from .errors import DataError, NumericalError
from .model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    scores,
    unseen_scores,
)
from .solver import TrainData, TrainReport, train
from .zeroshot import train_zeroshot
from .synth import SynthConfig, SynthDataset, generate
from .evaluation import EvalReport, crossval_select, evaluate_model

__all__ = [
    "CooccurrencePair",
    "CorpusExample",
    "DataError",
    "EvalReport",
    "Hyperparameters",
    "KernelSpec",
    "NumericalError",
    "SynthConfig",
    "SynthDataset",
    "TrainData",
    "TrainReport",
    "TrainedModel",
    "crossval_select",
    "evaluate_model",
    "generate",
    "scores",
    "train",
    "train_zeroshot",
    "unseen_scores",
]
