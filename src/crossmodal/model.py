"""Domain types, the image kernel, and batched scoring of query images."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError


_KIND_NAMES = {numbers.Integral: "an integer", numbers.Real: "a real number", bool: "a bool"}


def check_types(obj, kinds: dict) -> None:
    """Raise ValueError unless each field of `obj` named in `kinds` holds a value
    of its kind (numbers.Integral, numbers.Real or bool). A bool counts only as
    a bool, not as an integer or a real number."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


@dataclass
class CorpusExample:
    """One labeled example in either modality.

    label is +1/-1 in binary mode, a class-id string in multi-class mode, or
    None for unlabeled query images.
    """

    id: str
    features: np.ndarray
    label: int | str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)


@dataclass
class CooccurrencePair:
    """A text vector and an image vector describing the same entity."""

    text_features: np.ndarray
    image_features: np.ndarray
    class_id: str | None = None

    def __post_init__(self):
        self.text_features = np.asarray(self.text_features, dtype=float)
        self.image_features = np.asarray(self.image_features, dtype=float)


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "gaussian"
    # None means "resolve by the median heuristic at training time".
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.bandwidth is not None:
            check_types(self, {"bandwidth": numbers.Real})
            if not 0 < self.bandwidth < np.inf:
                raise ValueError("bandwidth must be positive and finite")


@dataclass
class Hyperparameters:
    """Everything the solver needs beyond the data."""

    gamma: float = 1.0
    lam: float = 1.0
    C: float = 1.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    max_iter: int = 500
    tol: float = 1e-6        # relative objective decrease
    normalize: bool = False  # L2-normalize feature vectors before training

    def __post_init__(self):
        real = numbers.Real
        check_types(self, {"gamma": real, "lam": real, "C": real, "max_iter": numbers.Integral,
                           "tol": real, "normalize": bool})
        if not np.all(np.isfinite((self.gamma, self.lam, self.C, self.tol))):
            raise ValueError("hyperparameters must be finite")
        if self.gamma < 0 or self.lam < 0:
            raise ValueError("gamma and lam must be >= 0")
        if self.C <= 0:
            raise ValueError("C must be > 0")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("bad stopping/step parameters")


@dataclass
class TrainedModel:
    """Everything prediction needs: the transfer matrix, the alpha coefficients,
    and the embedded corpora they sum over."""

    S: np.ndarray
    alpha: np.ndarray
    source_texts: list[CorpusExample]
    train_images: list[CorpusExample]
    kernel: KernelSpec
    hyper: Hyperparameters
    final_objective: float | None = None

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (len(self.train_images),):
            raise DataError("alpha length must match the number of training images")

    @property
    def normalize(self) -> bool:
        """Whether the model was trained on, and so scores, L2-normalized features."""
        return self.hyper.normalize


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """The rows of the matrix X scaled to unit L2 norm; a zero row stays zero."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.where(norms == 0.0, 1.0, norms)


def stack_rows(rows: list[np.ndarray], dim: int, name) -> np.ndarray:
    """(N, dim) matrix of the feature vectors `rows`; (0, dim) when empty.

    The first row whose shape is not (dim,) raises a DataError that names it
    as `name(k)`."""
    if not rows:
        return np.zeros((0, dim))
    try:
        X = np.array(rows)
    except ValueError:  # rows of different widths
        X = None
    if X is None or X.shape != (len(rows), dim):
        k, v = next((k, v) for k, v in enumerate(rows) if v.shape != (dim,))
        width = v.shape[0] if v.ndim == 1 else v.shape
        raise DataError(f"{name(k)} dimension {width} != expected {dim}")
    return X


def stack_features(examples: list[CorpusExample], dim: int, what: str) -> np.ndarray:
    """(N, dim) matrix of the examples' feature vectors; (0, dim) when empty."""
    return stack_rows(
        [e.features for e in examples], dim, lambda k: f"{what} {examples[k].id!r}"
    )


def signs(examples: list[CorpusExample], what: str = "example") -> np.ndarray:
    """The +1/-1 labels of binary-mode examples as floats."""
    for e in examples:
        if isinstance(e.label, bool) or e.label not in (1, -1):
            raise DataError(f"{what} {e.id!r} has label {e.label!r}; binary mode needs +1/-1")
    return np.array([float(e.label) for e in examples])


def ovr_labels(examples: list[CorpusExample], classes: list[str]) -> np.ndarray:
    """(N, B) one-vs-rest label matrix over an ordered class list."""
    labels = np.full((len(examples), len(classes)), -1.0)
    index = {c: b for b, c in enumerate(classes)}
    for i, ex in enumerate(examples):
        b = index.get(ex.label)
        if b is not None:
            labels[i, b] = 1.0
    return labels


def check_unseen_texts(texts: list[CorpusExample], unseen) -> None:
    """Raise DataError unless each unseen class labels one of `texts`:
    `unseen_scores` ranks a class by the votes of its texts, and a class with
    none by every text's -1 vote alone."""
    textless = set(unseen) - {t.label for t in texts}
    if textless:
        raise DataError(f"unseen classes label no source text: {sorted(textless)}")


def kernel_matrix(kernel: KernelSpec, Z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Kernel Gram matrix between the rows of Z1 and the rows of Z2."""
    if kernel.kind == "linear":
        return Z1 @ Z2.T
    if kernel.bandwidth is None:
        raise ValueError("gaussian kernel bandwidth not resolved")
    d2 = (
        np.sum(Z1**2, axis=1)[:, None]
        + np.sum(Z2**2, axis=1)[None, :]
        - 2.0 * Z1 @ Z2.T
    )
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * kernel.bandwidth**2))


_BANDWIDTH_MAX_PAIRS = 10_000


def median_bandwidth(Z: np.ndarray) -> float:
    """Median pairwise Euclidean distance between the rows of the (m, q) matrix
    Z, subsampled above `_BANDWIDTH_MAX_PAIRS` pairs."""
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least 2 images")
    n_pairs = n * (n - 1) // 2
    if n_pairs <= _BANDWIDTH_MAX_PAIRS:
        i, j = np.triu_indices(n, k=1)
    else:
        # Deterministic subsample; the heuristic does not need exact quantiles.
        rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=_BANDWIDTH_MAX_PAIRS)
        j = rng.integers(0, n - 1, size=_BANDWIDTH_MAX_PAIRS)
        j = np.where(j >= i, j + 1, j)
    dists = np.linalg.norm(Z[i] - Z[j], axis=1)
    med = float(np.median(dists))
    if not np.isfinite(med):
        raise NumericalError("median image distance is non-finite; pass an explicit bandwidth")
    if med == 0.0:
        raise DataError("all image features are identical; pass an explicit bandwidth")
    return med


def _queries(model: TrainedModel, Z) -> np.ndarray:
    """Query images as a (k, q) matrix, rows L2-normalized when the model was
    trained on normalized features; a zero row stays zero."""
    Z = np.asarray(Z, dtype=float)
    q = model.S.shape[1]
    if Z.ndim != 2 or Z.shape[1] != q:
        raise DataError(f"query images have shape {Z.shape}, expected (k, {q})")
    return normalize_rows(Z) if model.normalize else Z


def _text_votes(model: TrainedModel, Z: np.ndarray) -> np.ndarray:
    """tanh(x_i' S z) for every query row z and source text x_i, shape (k, n)."""
    X = stack_features(model.source_texts, model.S.shape[0], "source text")
    return np.tanh(Z @ model.S.T @ X.T)


def scores(model: TrainedModel, Z) -> np.ndarray:
    """Joint discriminant f(z) = sum_i y_i tanh(x_i' S z) + sum_j alpha_j y_j K(z_j, z)
    of every row z of the (k, q) query matrix Z, shape (k,).

    The label of an image is +1 where its score is > 0 and -1 otherwise, so an
    exact 0 maps to -1.
    """
    Z = _queries(model, Z)
    s = _text_votes(model, Z) @ signs(model.source_texts)
    if model.train_images:
        Z_train = stack_features(model.train_images, Z.shape[1], "training image")
        s += kernel_matrix(model.kernel, Z, Z_train) @ (model.alpha * signs(model.train_images))
    return s


def unseen_scores(model: TrainedModel, Z, classes: list[str]) -> np.ndarray:
    """Intermodal score of every row z of Z for each class, shape (k, B): texts
    of class b vote +1 and all other texts -1, sum_i y_ib tanh(x_i' S z)."""
    Z = _queries(model, Z)
    return _text_votes(model, Z) @ ovr_labels(model.source_texts, classes)
