"""Line-delimited JSON dataset files and the JSON model file.

Dataset records are self-describing objects with a `kind` of text, image, or
pair. Floats round-trip exactly because json prints shortest-round-trip
decimals.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .errors import DataError
from .model import (
    CooccurrencePair,
    Corpora,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    check_unseen_texts,
    is_sign,
    score_labels,
)

MODEL_FORMAT_VERSION = 1
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares with any int
_BLOCK = 256  # dataset records whose feature vectors are checked as one array


def atomic_write_text(path: str, content: str) -> None:
    """Write via a temp file and rename, so failures leave no partial output.
    The file gets the mode `open(path, "w")` gives a new file, 0o666 & ~umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _floats(values) -> list:
    """The array `values` as (nested) lists of the Python floats `float` makes
    of its entries, in one conversion instead of one call per entry."""
    return np.asarray(values, dtype=float).tolist()


def _example_record(kind: str, ex: CorpusExample) -> dict:
    rec = {"kind": kind, "id": ex.id, "features": _floats(ex.features)}
    if ex.label is not None:
        rec["label" if is_sign(ex.label) else "class"] = ex.label
    return rec


def _pair_record(idx: int, pair: CooccurrencePair) -> dict:
    rec = {
        "kind": "pair",
        "id": f"p{idx}",
        "text_features": _floats(pair.text_features),
        "image_features": _floats(pair.image_features),
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
        if not is_sign(label):
            raise DataError(f"label must be 1 or -1, got {label!r}")
        return label
    return _parse_class(rec)


def _finite(values, what: str) -> np.ndarray:
    """Float array of a list of JSON numbers; json reads 1e999 as inf, which the model refuses."""
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


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def loads_object(raw: bytes | str, what: str) -> dict:
    """The JSON object `raw`, bytes read as UTF-8. Every decode failure (bad JSON or UTF-8,
    NaN or Infinity, an integer int() refuses, deep nesting) is a DataError naming `what`."""
    try:
        doc = _DECODER.decode(raw if isinstance(raw, str) else raw.decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be a JSON object")
    return doc


def _blocks(path: str):
    """The non-blank lines of `path` with their line numbers, `_BLOCK` at a time."""
    block = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                block.append((lineno, line))
                if len(block) == _BLOCK:
                    yield block
                    block = []
    if block:
        yield block


def _replay(path: str, what: str, block: list, take) -> None:
    """Call `take` on each line's object; errors get a `path:lineno` prefix."""
    for lineno, line in block:
        try:
            take(loads_object(line, what))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc


def _rows_array(rows: list, width: int | None) -> np.ndarray | None:
    """The feature vectors `rows` as one (len(rows), width) float array, when
    each would pass `_features` at `width` (the first row's, if None); else None."""
    if set(map(type, rows)) != {list}:
        return None
    if width is None:
        width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    # The same element types `_finite` allows, scanned once for the block.
    if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
        return None
    try:
        arr = np.array(rows, dtype=float)
    except (OverflowError, TypeError, ValueError):
        return None
    return arr if np.isfinite(arr).all() else None


def _example(rec: dict, kind: str, dims: dict[str, int]) -> CorpusExample:
    """A text or image record: a string id, its `_features`, a label or class."""
    if not isinstance(rec.get("id"), str):
        raise DataError("missing string id")
    return CorpusExample(rec["id"], _features(rec, "features", dims, kind), _parse_label(rec))


def _new_kind(rec: dict, seen_ids: dict[str, set]) -> str:
    """The kind of a dataset record, whose string id, new for that kind, joins `seen_ids`."""
    kind = rec.get("kind")
    if kind not in ("text", "image", "pair"):
        raise DataError(f"unknown kind {kind!r}")
    rid = rec.get("id")
    if not isinstance(rid, str):
        raise DataError("missing string id")
    if rid in seen_ids[kind]:
        raise DataError(f"duplicate {kind} id {rid!r}")
    seen_ids[kind].add(rid)
    return kind


def _take_record(rec: dict, corpora: Corpora, dims: dict[str, int], seen_ids) -> None:
    """Check one dataset record and add it to `corpora`."""
    kind = _new_kind(rec, seen_ids)
    if kind == "pair":
        # Pairs share each modality's width with the texts or the images.
        x = _features(rec, "text_features", dims, "text")
        z = _features(rec, "image_features", dims, "image")
        corpora.pairs.append(CooccurrencePair(x, z, class_id=_parse_class(rec)))
    else:
        ex = _example(rec, kind, dims)
        (corpora.texts if kind == "text" else corpora.images).append(ex)


def _take_block(block: list, corpora: Corpora, dims: dict[str, int], seen_ids) -> bool:
    """`_take_record` of each line of `block`, with the feature vectors checked
    as one array per modality. False, with nothing taken, when any check fails."""
    taken, labels = [], []  # (kind, record), and its label or class
    rows = {"text": [], "image": []}
    try:
        for _, line in block:
            rec = loads_object(line, "record")
            kind = _new_kind(rec, seen_ids)
            taken.append((kind, rec))
            if kind == "pair":
                labels.append(_parse_class(rec))
                rows["text"].append(rec.get("text_features"))
                rows["image"].append(rec.get("image_features"))
            else:
                labels.append(_parse_label(rec))
                rows[kind].append(rec.get("features"))
        arrays = {m: _rows_array(r, dims.get(m)) for m, r in rows.items() if r}
    except DataError:
        arrays = None
    if arrays is None or any(a is None for a in arrays.values()):
        for kind, rec in taken:
            seen_ids[kind].discard(rec["id"])
        return False
    vectors = {m: iter(a) for m, a in arrays.items()}
    for (kind, rec), label in zip(taken, labels):
        if kind == "pair":
            corpora.pairs.append(
                CooccurrencePair(next(vectors["text"]), next(vectors["image"]), class_id=label))
        else:
            ex = CorpusExample(rec["id"], next(vectors[kind]), label)
            (corpora.texts if kind == "text" else corpora.images).append(ex)
    for m, a in arrays.items():
        dims.setdefault(m, a.shape[1])
    return True


def parse_dataset(path: str) -> Corpora:
    """Parse and validate a dataset file; errors carry the offending line number.

    A block whose checks all pass is taken at once. Otherwise its records are
    replayed one at a time, so the first error is the one a record-by-record
    read meets, with the same message and line."""
    corpora = Corpora()
    dims: dict[str, int] = {}
    seen_ids: dict[str, set] = {"text": set(), "image": set(), "pair": set()}

    for block in _blocks(path):
        if not _take_block(block, corpora, dims, seen_ids):
            _replay(path, "record", block, lambda rec: _take_record(rec, corpora, dims, seen_ids))
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


def _float_tokens(values) -> list[str]:
    """The text json writes for each entry of the array `values`, in C order."""
    flat = _floats(np.ravel(values))
    return json.dumps(flat)[1:-1].split(", ") if flat else []


def write_predictions(path: str, ids: list[str], scores, classes: list[str] | None = None) -> None:
    """Write the scores of the images `ids`: an (N,) binary score vector, each
    with its `score_labels` label, or, given `classes`, an (N, B) zero-shot
    table with one column per class.

    Each line is `json.dumps` of its record, built from a template around the
    tokens json writes for the id, the class names and the floats."""
    id_tokens = map(_json_str, ids)
    if classes is None:
        lines = map('{"id": %s, "score": %s, "label": %s}\n'.__mod__,
                    zip(id_tokens, _float_tokens(scores), score_labels(scores).tolist()))
    else:
        # As dict(zip(classes, row)): a repeated class keeps its first place, its last score.
        columns = {c: j for j, c in enumerate(classes)}
        keys = ", ".join(_json_str(c).replace("%", "%%") + ": %s" for c in columns)
        template = '{"id": %s, "scores": {' + keys + '}}\n'
        table = np.asarray(scores, dtype=float)[:, list(columns.values())]
        tokens, width = _float_tokens(table), len(columns)
        rows = (tokens[k * width:(k + 1) * width] for k in range(len(table)))
        lines = (template % (i, *row) for i, row in zip(id_tokens, rows))
    atomic_write_text(path, "".join(lines))


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
        if not isinstance(rec.get("id"), str):
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
            if not is_sign(rec.get("label")):
                raise DataError("'label' must be 1 or -1")
            labels.append(rec["label"])
        if rec["id"] in ids:
            raise DataError(f"duplicate id {rec['id']!r}")
        ids[rec["id"]] = None

    for block in _blocks(path):
        _replay(path, "prediction", block, take)
    if classes is None:
        return Predictions(list(ids), np.array(rows, dtype=float), np.array(labels, dtype=int))
    return Predictions(list(ids), np.array(rows), classes=classes)


# Model files ------------------------------------------------------------------

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
        "S": _floats(model.S.ravel()),
        "alpha": _floats(model.alpha),
        "kernel": asdict(model.kernel),
        "source_texts": [_example_record("text", t) for t in model.source_texts],
        "train_images": [_example_record("image", i) for i in model.train_images],
        "hyper": {"lambda" if k == "lam" else k: v for k, v in asdict(model.hyper).items()},
        "final_objective": model.final_objective,
        "unseen_classes": unseen_classes or [],
    }
    return json.dumps(doc)


def write_model(model, path, unseen_classes=None) -> None:
    atomic_write_text(path, serialize_model(model, unseen_classes))


def _model_examples(doc: dict, key: str, dims: dict, binary: bool) -> list[CorpusExample]:
    """The embedded corpus `key` of a model file, each record read as
    `parse_dataset` reads one; a binary model's labels must be +1/-1. The
    corpus is checked as one block (`_model_block`); when that fails, its
    records are read one at a time, so the first error is a record's own."""
    kind = "text" if key == "source_texts" else "image"
    recs = doc[key]
    taken = _model_block(recs, kind, dims, binary) if type(recs) is list else None
    if taken is not None:
        return taken
    out = []
    for rec in recs:
        try:
            ex = _example(rec, kind, dims)
            if binary and not is_sign(ex.label):
                raise DataError(f"label {ex.label!r} in a binary model, which needs +1/-1")
        except DataError as exc:
            if not isinstance(rec.get("id"), str):
                raise DataError(f"{key} record without a string id") from exc
            raise DataError(f"{key} {rec['id']!r}: {exc}") from exc
        out.append(ex)
    return out


def _model_block(recs: list, kind: str, dims: dict, binary: bool) -> list[CorpusExample] | None:
    """The examples of `recs` with their vectors checked as one array, or None
    when any check fails."""
    if set(map(type, recs)) != {dict} or not all(isinstance(r.get("id"), str) for r in recs):
        return None
    try:
        labels = [_parse_label(rec) for rec in recs]
    except DataError:
        return None
    if binary and not all(map(is_sign, labels)):
        return None
    arr = _rows_array([rec.get("features") for rec in recs], dims[kind])
    if arr is None:
        return None
    return [CorpusExample(rec["id"], row, label) for rec, row, label in zip(recs, arr, labels)]


def parse_model(text: bytes | str) -> tuple[TrainedModel, str, list[str]]:
    """Returns (model, mode, unseen_classes). Raises DataError on bad input."""
    doc = loads_object(text, "model file")
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
        for name, value in (("p", p), ("q", q)):
            if type(value) is not int or value < 0:
                raise DataError(f"{name} must be a non-negative integer, got {value!r}")
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
    try:
        with open(path, "rb") as fh:
            return parse_model(fh.read())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
