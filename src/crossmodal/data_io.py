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
)

MODEL_FORMAT_VERSION = 1


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
    if "class" not in rec:
        return None
    cls = rec["class"]
    if not isinstance(cls, str):
        raise DataError("class must be a string")
    return cls


def _parse_label(rec: dict):
    if "label" in rec:
        label = rec["label"]
        if not isinstance(label, int) or isinstance(label, bool) or label not in (1, -1):
            raise DataError(f"label must be 1 or -1, got {label!r}")
        return label
    return _parse_class(rec)


def _finite(values, what: str) -> np.ndarray:
    """Float array of `values`; json accepts NaN and Infinity, the model does not."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{what} must hold numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} holds a non-finite number")
    return arr


def _reject_constant(token: str):
    raise DataError(f"non-finite number {token} is not allowed")


def _features(rec: dict, key: str) -> np.ndarray:
    if key not in rec:
        raise DataError(f"missing {key!r}")
    values = rec[key]
    if not isinstance(values, list) or not values:
        raise DataError(f"{key!r} must be a non-empty array of numbers")
    return _finite(values, repr(key))


def parse_dataset(path: str) -> Corpora:
    """Parse and validate a dataset file; errors carry the offending line number."""
    corpora = Corpora()
    dims: dict[str, int] = {}
    seen_ids: dict[str, set] = {"text": set(), "image": set(), "pair": set()}

    def check_dim(modality: str, vec: np.ndarray, lineno: int):
        # Pairs share each modality's width with the texts or the images.
        dim = dims.setdefault(modality, vec.shape[0])
        if vec.shape[0] != dim:
            raise DataError(
                f"{path}:{lineno}: {modality} feature dimension {vec.shape[0]} != "
                f"established {dim}"
            )

    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed record: {exc}") from exc
            try:
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
                    x = _features(rec, "text_features")
                    z = _features(rec, "image_features")
                    check_dim("text", x, lineno)
                    check_dim("image", z, lineno)
                    corpora.pairs.append(
                        CooccurrencePair(x, z, class_id=_parse_class(rec))
                    )
                else:
                    v = _features(rec, "features")
                    check_dim(kind, v, lineno)
                    ex = CorpusExample(rid, v, _parse_label(rec))
                    (corpora.texts if kind == "text" else corpora.images).append(ex)
            except DataError as exc:
                if str(exc).startswith(f"{path}:"):
                    raise
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return corpora


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


def _model_examples(records: list, key: str, dim: int, binary: bool) -> list[CorpusExample]:
    """The embedded corpus `key` of a model file, checked as `parse_dataset`
    checks dataset records; a binary model's labels must be +1/-1."""
    out = []
    for rec in records:
        rid = rec.get("id")
        if not isinstance(rid, str):
            raise DataError(f"{key} record without a string id")
        try:
            v = _features(rec, "features")
            if v.shape != (dim,):
                raise DataError(f"features have shape {v.shape}, expected ({dim},)")
            label = _parse_label(rec)
            if binary and label not in (1, -1):
                raise DataError(f"label {label!r} in a binary model, which needs +1/-1")
        except DataError as exc:
            raise DataError(f"{key} {rid!r}: {exc}") from exc
        out.append(CorpusExample(rid, v, label))
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
        raise DataError(
            f"unsupported model format_version {version!r}; "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    mode = doc.get("mode", "binary")
    try:
        p, q = doc["p"], doc["q"]
        S = _finite(doc["S"], "S")
        if S.size != p * q:
            raise DataError(f"S has {S.size} entries, expected {p * q}")
        kernel = KernelSpec(
            kind=doc["kernel"]["kind"], bandwidth=doc["kernel"]["bandwidth"]
        )
        binary = mode != "zeroshot"
        model = TrainedModel(
            S=S.reshape(p, q),
            alpha=_finite(doc["alpha"], "alpha"),
            source_texts=_model_examples(doc["source_texts"], "source_texts", p, binary),
            train_images=_model_examples(doc["train_images"], "train_images", q, binary),
            kernel=kernel,
            hyper=_hyper_from_dict(doc["hyper"]),
            final_objective=doc.get("final_objective"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model file: {exc}") from exc
    return model, mode, doc.get("unseen_classes", [])


def read_model(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_model(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
