"""Line-delimited JSON dataset files and the JSON model file.

Dataset records are self-describing objects with a `kind` of text, image, or
pair. Floats round-trip exactly because json prints shortest-round-trip
decimals.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    check_unseen_texts,
)

MODEL_FORMAT_VERSION = 1
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares with any int


@dataclass
class Corpora:
    texts: list[CorpusExample] = field(default_factory=list)
    images: list[CorpusExample] = field(default_factory=list)
    pairs: list[CooccurrencePair] = field(default_factory=list)


def atomic_write_text(path: str, content: str) -> None:
    """Write via a temp file and rename, so failures leave no partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _example_record(kind: str, ex: CorpusExample) -> dict:
    rec = {"kind": kind, "id": ex.id, "features": list(map(float, ex.features))}
    if ex.label is not None:
        rec["label" if isinstance(ex.label, int) else "class"] = ex.label
    return rec


def _pair_record(idx: int, pair: CooccurrencePair) -> dict:
    rec = {
        "kind": "pair",
        "id": f"p{idx}",
        "text_features": list(map(float, pair.text_features)),
        "image_features": list(map(float, pair.image_features)),
    }
    if pair.class_id is not None:
        rec["class"] = pair.class_id
    return rec


def serialize_dataset(corpora: Corpora) -> str:
    lines = [json.dumps(_example_record("text", t)) for t in corpora.texts]
    lines += [json.dumps(_example_record("image", i)) for i in corpora.images]
    lines += [json.dumps(_pair_record(k, c)) for k, c in enumerate(corpora.pairs)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_dataset(corpora: Corpora, path: str) -> None:
    atomic_write_text(path, serialize_dataset(corpora))


def _parse_class(rec: dict) -> str | None:
    if "class" in rec and not isinstance(rec["class"], str):
        raise DataError("class must be a string")
    return rec.get("class")


def _parse_label(rec: dict):
    if "label" in rec:
        label = rec["label"]
        if not isinstance(label, int) or isinstance(label, bool) or label not in (1, -1):
            raise DataError(f"label must be 1 or -1, got {label!r}")
        return label
    return _parse_class(rec)


def _finite(values, what: str) -> np.ndarray:
    """Float array of a list of JSON numbers; json accepts NaN and Infinity, the model does not."""
    # numpy would read "1.5" and true as numbers and a nested array as a row.
    odd = set(map(type, values)) - {float, int}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise DataError(f"{what} must hold numbers only, not {names}")
    try:
        arr = np.array(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{what} must hold numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise DataError(f"{what} holds a non-finite number")
    return arr


def _reject_constant(token: str):
    raise DataError(f"non-finite number {token} is not allowed")


def _features(rec: dict, key: str, dims: dict[str, int], modality: str) -> np.ndarray:
    """The feature vector `key` of `rec`, as wide as `dims[modality]`; the
    first vector of a modality sets that width when `dims` has none."""
    if key not in rec:
        raise DataError(f"missing {key!r}")
    values = rec[key]
    if not isinstance(values, list) or not values:
        raise DataError(f"{key!r} must be a non-empty array of numbers")
    v = _finite(values, repr(key))
    dim = dims.setdefault(modality, v.shape[0])
    if v.shape[0] != dim:
        raise DataError(f"{modality} feature dimension {v.shape[0]} != expected {dim}")
    return v


def _read_jsonl(path: str, what: str, take, parse_constant=None) -> None:
    """Call `take` on each non-blank line's record; errors get a `path:lineno` prefix."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                take(json.loads(line, parse_constant=parse_constant))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc


def _example(rec: dict, kind: str, dims: dict[str, int]) -> CorpusExample:
    """A text or image record: a string id, its `_features`, a label or class."""
    if not isinstance(rec.get("id"), str):
        raise DataError("missing string id")
    return CorpusExample(rec["id"], _features(rec, "features", dims, kind), _parse_label(rec))


def parse_dataset(path: str) -> Corpora:
    """Parse and validate a dataset file; errors carry the offending line number."""
    corpora = Corpora()
    dims: dict[str, int] = {}
    seen_ids: dict[str, set] = {"text": set(), "image": set(), "pair": set()}

    def take(rec):
        if not isinstance(rec, dict):
            raise DataError("record must be a JSON object")
        kind = rec.get("kind")
        if kind not in ("text", "image", "pair"):
            raise DataError(f"unknown kind {kind!r}")
        rid = rec.get("id")
        if not isinstance(rid, str):
            raise DataError("missing string id")
        if rid in seen_ids[kind]:
            raise DataError(f"duplicate {kind} id {rid!r}")
        seen_ids[kind].add(rid)
        if kind == "pair":
            # Pairs share each modality's width with the texts or the images.
            x = _features(rec, "text_features", dims, "text")
            z = _features(rec, "image_features", dims, "image")
            corpora.pairs.append(CooccurrencePair(x, z, class_id=_parse_class(rec)))
        else:
            ex = _example(rec, kind, dims)
            (corpora.texts if kind == "text" else corpora.images).append(ex)

    _read_jsonl(path, "record", take)
    return corpora


# Prediction files -------------------------------------------------------------

@dataclass
class Predictions:
    """The records of a prediction file, in file order. Binary records give
    each image a score and a +1/-1 label; zero-shot records give it one score
    per class, the columns of an (N, B) table in the first record's order."""

    ids: list[str]
    scores: np.ndarray
    labels: np.ndarray | None = None
    classes: list[str] | None = None


def write_predictions(path: str, ids: list[str], scores, classes: list[str] | None = None) -> None:
    """Write the scores of the images `ids`: an (N,) binary score vector, with
    label +1 where a score is > 0 and -1 otherwise, or, given `classes`, an
    (N, B) zero-shot table with one column per class."""
    if classes is None:
        records = ({"id": i, "score": float(s), "label": 1 if s > 0 else -1}
                   for i, s in zip(ids, scores))
    else:
        records = ({"id": i, "scores": dict(zip(classes, map(float, row)))}
                   for i, row in zip(ids, scores))
    atomic_write_text(path, "".join(json.dumps(r) + "\n" for r in records))


def _finite_number(value, what: str) -> float:
    # json reads 1e999 as inf, and a 400-digit integer as an int no float holds.
    if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:
        raise DataError(f"{what} must be a finite number")
    return float(value)


def read_predictions(path: str) -> Predictions:
    """Parse and validate a prediction file. Each record has a unique string
    id and, in the mode of the first record, either a finite score and a
    +1/-1 label, or finite scores over the first record's classes."""
    ids: dict[str, None] = {}  # ordered, for the duplicate check
    rows: list = []
    labels: list[int] = []
    classes: list[str] | None = None  # set by a zero-shot first record

    def take(rec):
        nonlocal classes
        if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
            raise DataError("missing string id")
        if classes is not None or (not ids and "scores" in rec):
            table = rec.get("scores")
            if not isinstance(table, dict) or not table:
                raise DataError("'scores' must be a non-empty object")
            classes = classes or list(table)
            if table.keys() != set(classes):
                raise DataError(
                    f"classes {sorted(table)} differ from the first record's {sorted(classes)}"
                )
            row = {c: _finite_number(v, f"score of class {c!r}") for c, v in table.items()}
            rows.append([row[c] for c in classes])
        else:
            rows.append(_finite_number(rec.get("score"), "'score'"))
            if type(rec.get("label")) is not int or rec["label"] not in (1, -1):
                raise DataError("'label' must be 1 or -1")
            labels.append(rec["label"])
        if rec["id"] in ids:
            raise DataError(f"duplicate id {rec['id']!r}")
        ids[rec["id"]] = None

    _read_jsonl(path, "prediction", take, parse_constant=_reject_constant)
    if classes is None:
        return Predictions(list(ids), np.array(rows, dtype=float), np.array(labels, dtype=int))
    return Predictions(list(ids), np.array(rows), classes=classes)


# Model files ------------------------------------------------------------------

def _hyper_dict(h: Hyperparameters) -> dict:
    return {
        "gamma": h.gamma,
        "lambda": h.lam,
        "C": h.C,
        "kernel": {"kind": h.kernel.kind, "bandwidth": h.kernel.bandwidth},
        "max_iter": h.max_iter,
        "tol": h.tol,
        "normalize": h.normalize,
    }


def _hyper_from_dict(d: dict) -> Hyperparameters:
    kernel = d.get("kernel", {})
    return Hyperparameters(
        gamma=d["gamma"],
        lam=d["lambda"],
        C=d["C"],
        kernel=KernelSpec(kind=kernel["kind"], bandwidth=kernel["bandwidth"]),
        max_iter=d["max_iter"],
        tol=d["tol"],
        normalize=d.get("normalize", False),
    )


def serialize_model(model: TrainedModel, unseen_classes: list[str] | None = None) -> str:
    """The model file of `model`; a zero-shot model when `unseen_classes` is
    non-empty, a binary one otherwise."""
    p, q = model.S.shape
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": "zeroshot" if unseen_classes else "binary",
        "p": p,
        "q": q,
        "S": list(map(float, model.S.ravel())),
        "alpha": list(map(float, model.alpha)),
        "kernel": {"kind": model.kernel.kind, "bandwidth": model.kernel.bandwidth},
        "source_texts": [_example_record("text", t) for t in model.source_texts],
        "train_images": [_example_record("image", i) for i in model.train_images],
        "hyper": _hyper_dict(model.hyper),
        "final_objective": model.final_objective,
        "unseen_classes": unseen_classes or [],
    }
    return json.dumps(doc)


def write_model(model, path, unseen_classes=None) -> None:
    atomic_write_text(path, serialize_model(model, unseen_classes))


def _model_examples(doc: dict, key: str, dims: dict, binary: bool) -> list[CorpusExample]:
    """The embedded corpus `key` of a model file, each record read as
    `parse_dataset` reads one; a binary model's labels must be +1/-1."""
    kind = "text" if key == "source_texts" else "image"
    out = []
    for rec in doc[key]:
        try:
            ex = _example(rec, kind, dims)
            if binary and ex.label not in (1, -1):
                raise DataError(f"label {ex.label!r} in a binary model, which needs +1/-1")
        except DataError as exc:
            if not isinstance(rec.get("id"), str):
                raise DataError(f"{key} record without a string id") from exc
            raise DataError(f"{key} {rec['id']!r}: {exc}") from exc
        out.append(ex)
    return out


def parse_model(text: str) -> tuple[TrainedModel, str, list[str]]:
    """Returns (model, mode, unseen_classes). Raises DataError on bad input."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("malformed model file: not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {version!r}; "
                        f"this build reads version {MODEL_FORMAT_VERSION}")
    mode = doc.get("mode", "binary")
    unseen = doc.get("unseen_classes", [])
    final = doc.get("final_objective")
    try:
        if mode not in ("binary", "zeroshot"):
            raise DataError(f"unknown mode {mode!r}")
        if not (isinstance(unseen, list) and all(isinstance(c, str) for c in unseen)
                and len(set(unseen)) == len(unseen)):
            raise DataError("unseen_classes must be a list of distinct strings")
        binary = mode == "binary"
        if binary and unseen:
            raise DataError("binary model lists unseen classes")
        if not binary and not unseen:
            raise DataError("zero-shot model lists no unseen classes")
        p, q = doc["p"], doc["q"]
        S = _finite(doc["S"], "S")
        if S.size != p * q:
            raise DataError(f"S has {S.size} entries, expected {p * q}")
        kernel = KernelSpec(kind=doc["kernel"]["kind"], bandwidth=doc["kernel"]["bandwidth"])
        model = TrainedModel(
            S=S.reshape(p, q),
            alpha=_finite(doc["alpha"], "alpha"),
            source_texts=_model_examples(doc, "source_texts", {"text": p}, binary),
            train_images=_model_examples(doc, "train_images", {"image": q}, binary),
            kernel=kernel,
            hyper=_hyper_from_dict(doc["hyper"]),
            final_objective=None if final is None else _finite_number(final, "final_objective"),
        )
        # Only binary scoring uses the kernel; zero-shot models leave it unresolved.
        if binary and model.train_images and kernel == KernelSpec("gaussian", None):
            raise DataError("binary model with training images has a null gaussian bandwidth")
        if not binary:
            check_unseen_texts(model.source_texts, unseen)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model file: {exc}") from exc
    return model, mode, unseen


def read_model(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_model(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
